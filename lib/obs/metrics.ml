(* A registry of named counters and histograms, filled from the event
   stream alone: {!record} is a {!Bus} subscriber (a tracing session
   subscribes it) and the one place that maps an event kind to a name.
   Counters are plain ints; histograms bucket values by log2 (good
   enough for cycle counts spanning orders of magnitude) and keep exact
   count/sum/min/max so means are precise even though percentiles are
   bucket-resolution. Enumeration is sorted by name, never by hash
   order. *)

type counter = { c_name : string; mutable count : int }

type histogram = {
  h_name : string;
  buckets : int array; (* buckets.(b) counts values with log2 = b *)
  mutable n : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

(* The registry is domain-local, like the bus that feeds it. *)
type registry = {
  reg_counters : (string, counter) Hashtbl.t;
  reg_histograms : (string, histogram) Hashtbl.t;
}

let registry_key : registry Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { reg_counters = Hashtbl.create 64; reg_histograms = Hashtbl.create 64 })

let counters_tbl () = (Domain.DLS.get registry_key).reg_counters
let histograms_tbl () = (Domain.DLS.get registry_key).reg_histograms

let counter name =
  let counters_tbl = counters_tbl () in
  match Hashtbl.find_opt counters_tbl name with
  | Some c -> c
  | None ->
    let c = { c_name = name; count = 0 } in
    Hashtbl.replace counters_tbl name c;
    c

let add c by = c.count <- c.count + by

let nbuckets = 63

let histogram name =
  let histograms_tbl = histograms_tbl () in
  match Hashtbl.find_opt histograms_tbl name with
  | Some h -> h
  | None ->
    let h =
      {
        h_name = name;
        buckets = Array.make nbuckets 0;
        n = 0;
        sum = 0;
        min_v = max_int;
        max_v = 0;
      }
    in
    Hashtbl.replace histograms_tbl name h;
    h

(* A histogram with the same shape but outside the registry: per-run
   latency recorders (the serving mode makes one per operation class per
   run) that must not accumulate across runs in one process and must not
   leak into dump()/histograms(). *)
let unregistered name =
  {
    h_name = name;
    buckets = Array.make nbuckets 0;
    n = 0;
    sum = 0;
    min_v = max_int;
    max_v = 0;
  }

let bucket_of v =
  if v <= 0 then 0
  else
    let rec go b v = if v = 0 then b else go (b + 1) (v lsr 1) in
    min (nbuckets - 1) (go (-1) v)

let observe h v =
  let v = max 0 v in
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum + v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

(* The event kind -> registry name map. The [buddy.*] counters appear
   only once they move; the [swapd.*] ones with the first pass. *)
let record (e : Event.t) =
  let bump name by = add (counter name) by in
  let obs name v = observe (histogram name) v in
  match e.payload with
  | Lock_acquire { wait; _ } -> obs "lock.wait_cycles" wait
  | Lock_release { kind = Mutex | Rw_write; held; _ } ->
    obs "lock.hold_cycles" held
  | Rcu_defer _ -> bump "rcu.deferred" 1
  | Rcu_gp { callbacks } -> bump "rcu.gp_callbacks" callbacks
  | Tlb_shootdown { targets; _ } ->
    bump "tlb.shootdowns" 1;
    obs "tlb.shootdown_fanout" targets
  | Tlb_latr_drain { entries } -> bump "tlb.latr_drained" entries
  | Tlb_batch_flush { stalls } ->
    List.iter (obs "tlb.batch_stall_cycles") stalls;
    bump "tlb.batch_flushes" 1
  | Frame_allocated { pages; splits; _ } ->
    bump "phys.frame_allocs" 1;
    obs "phys.alloc_order" (bucket_of pages);
    if splits > 0 then bump "buddy.splits" splits
  | Frame_returned { merges; _ } ->
    bump "phys.frame_frees" 1;
    if merges > 0 then bump "buddy.merges" merges
  | Page_fault { span; _ } -> obs "fault.cycles" span
  | Cursor_lock { span; _ } -> obs "cursor.lock_cycles" span
  | Stale_retry -> bump "addr_space.stale_retries" 1
  | Pt_split _ -> bump "addr_space.pt_splits" 1
  | Pt_free { pages; _ } -> bump "addr_space.pt_pages_freed" pages
  | Reclaim_waken _ -> bump "pageoutd.wakeups" 1
  | Reclaim_pass { scanned; second_chances; swapped } ->
    bump "swapd.scanned" scanned;
    bump "swapd.second_chances" second_chances;
    bump "swapd.swapped" swapped
  | _ -> ()

let mean h = if h.n = 0 then 0.0 else float_of_int h.sum /. float_of_int h.n
let samples h = h.n
let total h = h.sum
let max_value h = h.max_v

(* Upper bound of the bucket holding the q-th quantile observation: the
   value at rank ceil(q*n) in sorted order lands in some log2 bucket b,
   and we report that bucket's inclusive upper edge 2^(b+1)-1, clamped to
   the exact maximum. So for an exact quantile x >= 1 the result r
   satisfies x <= r <= max(1, 2x-1): never an underestimate, and at most
   one power of two above (x=0 reports r <= 1, bucket 0's edge). *)
let quantile h q =
  if h.n = 0 then 0
  else begin
    let target =
      max 1 (int_of_float (ceil (q *. float_of_int h.n)))
    in
    let acc = ref 0 and result = ref h.max_v and found = ref false in
    Array.iteri
      (fun b c ->
        if not !found then begin
          acc := !acc + c;
          if !acc >= target then begin
            result := min h.max_v ((1 lsl (b + 1)) - 1);
            found := true
          end
        end)
      h.buckets;
    !result
  end

let sorted_values tbl =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let counters () =
  sorted_values (counters_tbl ())
  |> List.map (fun c -> (c.c_name, c.count))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histograms () =
  sorted_values (histograms_tbl ())
  |> List.map (fun h -> (h.h_name, h))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset () =
  Hashtbl.reset (counters_tbl ());
  Hashtbl.reset (histograms_tbl ())

(* Plain-text dump, e.g. under a benchmark's --report flag. *)
let dump () =
  let b = Buffer.create 256 in
  let cs = counters () in
  if cs <> [] then begin
    Buffer.add_string b "counters:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-36s %d\n" name v))
      cs
  end;
  let hs = histograms () in
  if hs <> [] then begin
    Buffer.add_string b "histograms (cycles):\n";
    Buffer.add_string b
      (Printf.sprintf "  %-36s %10s %10s %10s %10s %10s\n" "" "count" "mean"
         "p50<=" "p99<=" "max");
    List.iter
      (fun (name, h) ->
        Buffer.add_string b
          (Printf.sprintf "  %-36s %10d %10.1f %10d %10d %10d\n" name h.n
             (mean h) (quantile h 0.5) (quantile h 0.99) h.max_v))
      hs
  end;
  Buffer.contents b
