(* The differential cross-backend oracle.

   One trace is replayed on every registered backend, each in its own
   simulation world, in sequential global op order; {!Trace.exec} runs
   each op, exactly as it does for the timed replay. After every op the
   oracle records the typed outcome and checks per-op postconditions
   (mmap Ok => every page mapped; munmap Ok => every page unmapped —
   these catch a broken munmap that a later snapshot would miss, since
   an unmapped region leaves the region table). Every [check_every] ops
   and at the end it snapshots the observable state: one {!System.probe}
   per live process over all its live regions, kept as one byte per
   page, plus {!System.mem_stats} invariants. The logs are then compared
   pairwise against the first backend; the first difference is reported
   with its op index.

   What is compared is masked by capability facts, never by timing:
   - mapped-ness of every page: always;
   - error outcomes: by {!Mm_hal.Errno.same_class} (VA allocators place
     regions differently, so SIGSEGV payloads legitimately differ);
   - writability (and touch outcomes): only between backends that both
     applied every mprotect of the trace — a backend without mprotect
     legitimately keeps the original protection;
   - residency: only between backends with equal [demand_paging] (and
     mprotect parity, since a denied touch populates nothing).
   Those rules become one bit mask per backend pair over the probe
   bytes. Only a region whose masked bytes differ is decoded to
   {!Backend.page_state}s and described, so the message text is built
   only on a mismatch. *)

module Errno = Mm_hal.Errno

type outcome = O_ok | O_err of Errno.t | O_skip

let outcome_to_string = function
  | O_ok -> "ok"
  | O_err e -> Errno.to_string e
  | O_skip -> "skip"

type divergence = {
  d_op : int; (* index into the trace's entries *)
  d_backend_a : string;
  d_backend_b : string; (* equal to [d_backend_a] for a solo invariant *)
  d_what : string;
}

let describe d =
  if d.d_backend_a = d.d_backend_b then
    Printf.sprintf "op %d: [%s] %s" d.d_op d.d_backend_a d.d_what
  else
    Printf.sprintf "op %d: %s vs %s: %s" d.d_op d.d_backend_a d.d_backend_b
      d.d_what

(* One live process's probe: its regions' ids, sorted, and page counts,
   and one {!Mm_hal.Probe} byte per page of those regions in that order.
   A process with no live region has none. *)
type proc_snapshot = {
  p_proc : int;
  p_ids : int array;
  p_pages : int array;
  p_states : string;
}

type snapshot = proc_snapshot list (* sorted by process *)

type run_log = {
  l_name : string;
  l_caps : System.caps;
  l_skipped_mprotect : bool; (* at least one trace mprotect not applied *)
  l_skipped_reclaim : bool; (* at least one mlock/munlock/pressure skipped *)
  l_outcomes : outcome array;
  l_violations : (int * string) list; (* op index, broken invariant *)
  l_snapshots : (int * snapshot) list; (* taken after this op index *)
}

(* The per-page comparison shared by the oracle's snapshot check, its
   post-fork parent/child postcondition, and the schedule-exploration
   harness's final-state check (schedcheck compares a concurrent run
   against its own sequential replay, so it passes both flags as
   [true]). Returns human-readable mismatch descriptions. *)
let compare_page_states ?(check_writable = true) ?(check_resident = true)
    ~region (pa : Backend.page_state array) (pb : Backend.page_state array) =
  if Array.length pa <> Array.length pb then
    [
      Printf.sprintf "%s: %d pages vs %d pages" region (Array.length pa)
        (Array.length pb);
    ]
  else begin
    let mismatches = ref [] in
    Array.iteri
      (fun p st_a ->
        let st_b = pb.(p) in
        match (st_a, st_b) with
        | Backend.P_unmapped, Backend.P_unmapped -> ()
        | Backend.P_unmapped, Backend.P_mapped _
        | Backend.P_mapped _, Backend.P_unmapped ->
          mismatches :=
            Printf.sprintf "page %d of %s: mapped on one side only" p region
            :: !mismatches
        | ( Backend.P_mapped { writable = wa; resident = ra },
            Backend.P_mapped { writable = wb; resident = rb } ) ->
          if check_writable && wa <> wb then
            mismatches :=
              Printf.sprintf "page %d of %s: writable %b vs %b" p region wa
                wb
              :: !mismatches;
          if check_resident && ra <> rb then
            mismatches :=
              Printf.sprintf "page %d of %s: resident %b vs %b" p region ra
                rb
              :: !mismatches)
      pa;
    List.rev !mismatches
  end

(* {!compare_page_states} over two probes of the regions [ids], region
   by region: [sa] holds [pa.(k)] bytes for region [ids.(k)], in order,
   and [sb] likewise [pb.(k)]; [label id] names a region. Each mismatch
   goes to [f], in {!compare_page_states}'s order. Only a region whose
   bytes differ in a compared bit is decoded and described: an unmapped
   page's byte is 0, so with the mapped bit always compared, a masked
   difference is exactly a nonempty {!compare_page_states}. *)
let compare_probes ~check_writable ~check_resident ~label ids (pa, sa)
    (pb, sb) f =
  let mask =
    Mm_hal.Probe.mapped
    lor (if check_writable then Mm_hal.Probe.writable else 0)
    lor if check_resident then Mm_hal.Probe.resident else 0
  in
  let differ off_a off_b pages =
    let rec go p =
      p < pages
      && ((Char.code sa.[off_a + p] lxor Char.code sb.[off_b + p]) land mask
          <> 0
         || go (p + 1))
    in
    go 0
  in
  let decode s off pages =
    Array.init pages (fun p -> Backend.page_state_of_code s.[off + p])
  in
  if not (String.equal sa sb && pa = pb) then begin
    let off_a = ref 0 and off_b = ref 0 in
    Array.iteri
      (fun k id ->
        let na = pa.(k) and nb = pb.(k) in
        if na <> nb || differ !off_a !off_b na then
          List.iter f
            (compare_page_states ~check_writable ~check_resident
               ~region:(label id) (decode sa !off_a na) (decode sb !off_b nb));
        off_a := !off_a + na;
        off_b := !off_b + nb)
      ids
  end

(* The ids and page counts of [(id, (addr, len))] regions. *)
let ids_and_pages ~ps rs =
  ( Array.of_list (List.map fst rs),
    Array.of_list (List.map (fun (_, (_, len)) -> len / ps) rs) )

(* Replay the whole trace on one backend, inside a single fiber of a
   private world (sequential global op order: the oracle checks
   functional equivalence, not interleavings). {!Trace.exec} runs each
   op; this adds the typed outcomes and the checks. *)
let replay_one ?isa ~check_every (b : System.backend) trace =
  let root = System.of_backend ?isa b ~ncpus:1 in
  let ps = root.System.page_size in
  let entries = trace.Trace.entries in
  let nops = Array.length entries in
  let tbl = Trace.table root in
  (* The solo value model: expected data token per (proc, region, page),
     written by T_write and copied to the child at fork. A read is only
     checked when the model has an entry (a never-written page's raw
     contents are not comparable). This is what proves parent/child COW
     isolation: a fork that forgets to write-protect the parent leaks
     the parent's later stores into the child's reads, and the model
     pins the divergence to the exact read op. *)
  let model : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let outcomes = Array.make nops O_skip in
  let violations = ref [] in
  let snapshots = ref [] in
  let skipped_mprotect = ref false in
  let skipped_reclaim = ref false in
  let violate i what = violations := (i, what) :: !violations in
  let check_stats i =
    let m = System.mem_stats root in
    if m.System.resident_bytes < 0 then
      violate i
        (Printf.sprintf "mem_stats: negative resident_bytes %d"
           m.System.resident_bytes);
    if m.System.peak_resident_bytes < m.System.resident_bytes then
      violate i
        (Printf.sprintf "mem_stats: peak %d below resident %d"
           m.System.peak_resident_bytes m.System.resident_bytes);
    if m.System.pt_bytes < 0 || m.System.kernel_bytes < 0 then
      violate i "mem_stats: negative pt/kernel bytes"
  in
  let snapshot i =
    (* Trace.regions is sorted by (proc, id): group it per process. *)
    let by_proc =
      List.fold_right
        (fun ((proc, id), r) acc ->
          match acc with
          | (p, rs) :: rest when p = proc -> (p, (id, r) :: rs) :: rest
          | _ -> (proc, [ (id, r) ]) :: acc)
        (Trace.regions tbl) []
    in
    let s =
      List.map
        (fun (proc, rs) ->
          let p_states =
            System.probe (Trace.process tbl proc) (List.map snd rs)
          in
          let p_ids, p_pages = ids_and_pages ~ps rs in
          (* Eager backends have no lazy pages: mapped implies resident. *)
          if not root.System.caps.System.demand_paging then begin
            let off = ref 0 in
            Array.iteri
              (fun k id ->
                for p = 0 to p_pages.(k) - 1 do
                  if
                    Char.code p_states.[!off + p]
                    land (Mm_hal.Probe.mapped lor Mm_hal.Probe.resident)
                    = Mm_hal.Probe.mapped
                  then
                    violate i
                      (Printf.sprintf
                         "eager backend holds non-resident page %d of proc %d \
                          region %d"
                         p proc id)
                done;
                off := !off + p_pages.(k))
              p_ids
          end;
          { p_proc = proc; p_ids; p_pages; p_states })
        by_proc
    in
    check_stats i;
    snapshots := (i, s) :: !snapshots
  in
  (* Per-op postcondition: every page of region [id] is [mapped]. *)
  let post i ~mapped ~what id r =
    let states =
      System.probe (Trace.process tbl entries.(i).Trace.proc) [ r ]
    in
    String.iteri
      (fun p c ->
        if (Char.code c land Mm_hal.Probe.mapped <> 0) <> mapped then
          violate i
            (Printf.sprintf "page %d of region %d %s after %s" p id
               (if mapped then "unmapped" else "mapped")
               what))
      states
  in
  let run_op i =
    let { Trace.proc; op; _ } = entries.(i) in
    let step = Trace.exec tbl entries.(i) in
    outcomes.(i) <-
      (match step with
      | Trace.Skipped | Trace.Masked -> O_skip
      | Trace.Failed e -> O_err e
      | Trace.Done _ -> O_ok);
    match (op, step) with
    | Trace.T_mprotect _, Trace.Masked -> skipped_mprotect := true
    | (Trace.T_mlock _ | Trace.T_munlock _ | Trace.T_pressure _), Trace.Masked
      ->
      (* Without a page-out daemon there is nothing to wire against, so
         residency is then only compared between backends with reclaim
         parity. *)
      skipped_reclaim := true
    | Trace.T_mmap { id; _ }, Trace.Done (Trace.Region r) ->
      post i ~mapped:true ~what:"mmap" id r
    | Trace.T_munmap { id }, Trace.Done (Trace.Region ((_, len) as r)) ->
      for p = 0 to (len / ps) - 1 do
        Hashtbl.remove model (proc, id, p)
      done;
      post i ~mapped:false ~what:"munmap" id r
    | Trace.T_fork { child }, Trace.Done (Trace.Child (csys, inherited)) ->
      Hashtbl.fold
        (fun (p, id, pg) v acc -> if p = proc then (id, pg, v) :: acc else acc)
        model []
      |> List.iter (fun (id, pg, v) -> Hashtbl.replace model (child, id, pg) v);
      (* Post-fork postcondition: parent and child observe identical
         page states over every inherited region — this is where a fork
         that breaks the parent's or child's mappings is caught, at the
         fork op itself. *)
      let ranges = List.map snd inherited in
      let ids, pages = ids_and_pages ~ps inherited in
      compare_probes ~check_writable:true ~check_resident:true
        ~label:(fun id ->
          Printf.sprintf "fork of proc %d (child %d), region %d" proc child id)
        ids
        (pages, System.probe (Trace.process tbl proc) ranges)
        (pages, System.probe csys ranges)
        (violate i)
    | Trace.T_exit, Trace.Done _ when proc <> 0 ->
      Hashtbl.fold
        (fun (p, id, pg) _ acc -> if p = proc then (p, id, pg) :: acc else acc)
        model []
      |> List.iter (Hashtbl.remove model)
    | Trace.T_write { id; page = p; value }, Trace.Done _ ->
      Hashtbl.replace model (proc, id, p) value
    | Trace.T_read { id; page = p }, Trace.Done (Trace.Value v) -> (
      match Hashtbl.find_opt model (proc, id, p) with
      | Some expected when expected <> v ->
        violate i
          (Printf.sprintf
             "proc %d read %d from page %d of region %d, expected %d" proc v p
             id expected)
      | Some _ | None -> ())
    | _ -> ()
  in
  let w = Mm_sim.Engine.create ~ncpus:1 in
  Mm_sim.Engine.spawn w ~cpu:0 (fun () ->
      for i = 0 to nops - 1 do
        run_op i;
        if (i + 1) mod check_every = 0 then snapshot i
      done;
      if nops > 0 then snapshot (nops - 1));
  Mm_sim.Engine.run w;
  {
    l_name = root.System.name;
    l_caps = root.System.caps;
    l_skipped_mprotect = !skipped_mprotect;
    l_skipped_reclaim = !skipped_reclaim;
    l_outcomes = outcomes;
    l_violations = List.rev !violations;
    l_snapshots = List.rev !snapshots;
  }

(* -- Pairwise comparison against the reference (first) backend -- *)

let compare_outcomes trace (a : run_log) (b : run_log) =
  let parity = a.l_skipped_mprotect = b.l_skipped_mprotect in
  let divs = ref [] in
  Array.iteri
    (fun i oa ->
      let ob = b.l_outcomes.(i) in
      let is_touch =
        (* Write/read data accesses fault exactly like touches, so the
           mprotect-parity mask applies to them too. *)
        match trace.Trace.entries.(i).Trace.op with
        | Trace.T_touch _ | Trace.T_write _ | Trace.T_read _ -> true
        | _ -> false
      in
      let mismatch what =
        divs :=
          {
            d_op = i;
            d_backend_a = a.l_name;
            d_backend_b = b.l_name;
            d_what = what;
          }
          :: !divs
      in
      match (oa, ob) with
      | O_skip, _ | _, O_skip -> ()
      | O_ok, O_ok -> ()
      | O_err ea, O_err eb ->
        if not (Errno.same_class ea eb) then
          mismatch
            (Printf.sprintf "outcome %s vs %s" (Errno.to_string ea)
               (Errno.to_string eb))
      | (O_ok, O_err _ | O_err _, O_ok) when is_touch && not parity ->
        (* A skipped mprotect legitimately changes later touch results. *)
        ()
      | (O_ok | O_err _), (O_ok | O_err _) ->
        mismatch
          (Printf.sprintf "outcome %s vs %s" (outcome_to_string oa)
             (outcome_to_string ob)))
    a.l_outcomes;
  !divs

let compare_snapshots (a : run_log) (b : run_log) =
  let parity = a.l_skipped_mprotect = b.l_skipped_mprotect in
  let dp_eq =
    a.l_caps.System.demand_paging = b.l_caps.System.demand_paging
  in
  (* A backend that applied the trace's reclaim ops legitimately holds
     fewer resident pages than one that skipped them. *)
  let reclaim_eq = a.l_skipped_reclaim = b.l_skipped_reclaim in
  let divs = ref [] in
  List.iter2
    (fun (i, sa) (j, sb) ->
      assert (i = j);
      let mismatch what =
        divs :=
          {
            d_op = i;
            d_backend_a = a.l_name;
            d_backend_b = b.l_name;
            d_what = what;
          }
          :: !divs
      in
      let same_keys =
        List.equal
          (fun pa pb -> pa.p_proc = pb.p_proc && pa.p_ids = pb.p_ids)
          sa sb
      in
      if not same_keys then begin
        let show s =
          String.concat ";"
            (List.concat_map
               (fun p ->
                 List.map
                   (fun id -> Printf.sprintf "%d:%d" p.p_proc id)
                   (Array.to_list p.p_ids))
               s)
        in
        mismatch
          (Printf.sprintf "live (proc, region) ids differ ([%s] vs [%s])"
             (show sa) (show sb))
      end
      else
        List.iter2
          (fun pa pb ->
            compare_probes ~check_writable:parity
              ~check_resident:(parity && dp_eq && reclaim_eq)
              ~label:(fun id -> Printf.sprintf "proc %d region %d" pa.p_proc id)
              pa.p_ids (pa.p_pages, pa.p_states) (pb.p_pages, pb.p_states)
              mismatch)
          sa sb)
    a.l_snapshots b.l_snapshots;
  !divs

let default_backends () =
  List.map (fun e -> e.System.Registry.r_backend) System.Registry.all

(* Replay [trace] on every backend and report the earliest divergence
   (by op index), or [Ok nops]. Replays are independent worlds, so with
   [jobs > 1] they run on separate domains; the logs come back in
   backend order either way, and the comparison below is sequential, so
   the verdict is identical for any [jobs]. *)
let run ?isa ?(check_every = 16) ?(jobs = 1) ?mutant ?backends trace =
  let backends =
    match backends with Some l -> l | None -> default_backends ()
  in
  if check_every <= 0 then invalid_arg "Diff.run: check_every";
  let logs =
    Mm_par.Par.map ~jobs
      (fun b ->
        Runner.reset_world_state ();
        (* Arm the mutant per task, after the world reset disarmed it:
           each replay domain has its own slot. *)
        Mm_sim.Mutant.arm mutant;
        replay_one ?isa ~check_every b trace)
      backends
  in
  let solo =
    List.concat_map
      (fun l ->
        List.map
          (fun (i, what) ->
            { d_op = i; d_backend_a = l.l_name; d_backend_b = l.l_name; d_what = what })
          l.l_violations)
      logs
  in
  let cross =
    match logs with
    | [] | [ _ ] -> []
    | reference :: rest ->
      List.concat_map
        (fun l ->
          compare_outcomes trace reference l @ compare_snapshots reference l)
        rest
  in
  match
    List.sort (fun x y -> compare x.d_op y.d_op) (solo @ cross)
  with
  | [] -> Ok (Array.length trace.Trace.entries)
  | d :: _ -> Error d
