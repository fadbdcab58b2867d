(* The tracing session: three bus subscribers for the session's
   lifetime — {!Metrics.record}, {!Contention.record} and the per-vCPU
   event rings. The registries see every event; the rings may drop.

   Zero-overhead-when-disabled: with no subscriber the only cost an
   instrumentation site pays is the [Bus.on ()] check. Nothing in this
   module ever advances simulated time, so enabling a session changes
   *host* work only; virtual-time results are bit-identical with tracing
   on or off.

   Determinism: events carry the emitting vCPU's virtual time plus the
   bus's global emission sequence number. The simulator schedules fibers
   deterministically, so the emission order — and therefore the entire
   stream — is reproducible run-to-run. [start] resets the metrics and
   contention registries (and the lock-id counter) and the sequence
   number, so that two identical runs, each preceded by [start], produce
   byte-identical streams. *)

let max_cpus = 1024

type session = {
  rings : Event.t Ring.t option array; (* by cpu, created lazily *)
  capacity : int; (* per-cpu ring capacity *)
  subs : Bus.subscription list;
}

(* Domain-local: a tracing session belongs to the domain that started
   it. Parallel drivers (lib/par) never trace — the bench driver forces
   [-j 1] under [--trace]/[--report] so one session observes the whole
   sequential run. *)
let current_key : session option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key

let on () = !(current ()) <> None

let record rings ~capacity (e : Event.t) =
  if e.cpu >= 0 && e.cpu < max_cpus then begin
    let ring =
      match rings.(e.cpu) with
      | Some r -> r
      | None ->
        let r = Ring.create ~capacity in
        rings.(e.cpu) <- Some r;
        r
    in
    Ring.push ring e
  end

let close () =
  Option.iter (fun s -> List.iter Bus.unsubscribe s.subs) !(current ());
  current () := None

let start ?(capacity = 1 lsl 16) () =
  if capacity <= 0 then invalid_arg "Trace.start: capacity";
  close ();
  Metrics.reset ();
  Contention.reset ();
  Bus.reset_seq ();
  let rings = Array.make max_cpus None in
  let subs =
    List.map Bus.subscribe
      [ Metrics.record; Contention.record; record rings ~capacity ]
  in
  current () := Some { rings; capacity; subs }

let collect s =
  let all =
    Array.fold_left
      (fun acc r -> match r with None -> acc | Some r -> Ring.to_list r :: acc)
      [] s.rings
  in
  List.concat all |> List.sort (fun a b -> compare a.Event.seq b.Event.seq)

let events () = match !(current ()) with None -> [] | Some s -> collect s

let dropped () =
  match !(current ()) with
  | None -> 0
  | Some s ->
    Array.fold_left
      (fun acc r -> match r with None -> acc | Some r -> acc + Ring.dropped r)
      0 s.rings

let stop () =
  let evs = events () in
  close ();
  evs

(* The canonical text stream — what the determinism guarantee is stated
   over (see test/test_obs.ml). *)
let to_text evs = String.concat "\n" (List.map Event.to_string evs)
