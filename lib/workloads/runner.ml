(* Spawning helpers shared by every benchmark driver.

   Virtual time is global to a simulation world: cache-line and lock
   timestamps advance monotonically. A benchmark therefore runs its setup
   and measurement phases in ONE world, separated by barriers, and reports
   the measured interval — running them in separate worlds would let the
   setup's timestamps leak into the measurement's first operations. *)

module Engine = Mm_sim.Engine

(* A simple sense-less barrier over simulation fibers: the last arriver
   releases everyone at its (maximal) virtual time. *)
module Barrier = struct
  type t = {
    total : int;
    mutable arrived : int;
    mutable waiting : Engine.parked list;
  }

  let make ~total = { total; arrived = 0; waiting = [] }

  let wait b =
    Engine.serialize ();
    b.arrived <- b.arrived + 1;
    if b.arrived = b.total then begin
      let t = Engine.now () in
      List.iter (fun p -> Engine.unpark p ~at:t) b.waiting;
      b.waiting <- [];
      b.arrived <- 0
    end
    else Engine.park (fun p -> b.waiting <- p :: b.waiting)
end

type result = { ops : int; cycles : int; ops_per_sec : float }

(* -- Machine-readable result collection (bench --json) --

   Every benchmark funnels its numbers through [result], so an optional
   collector installed here sees each result exactly once. The driver
   labels the current experiment before running it; results constructed
   while no collection is active are simply not recorded. *)

(* Domain-local: a parallel driver's tasks each collect into their own
   domain's slot (started/stopped per task) and the driver merges the
   per-task lists in submission order. *)
let collector_key : (string * result) list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_label_key : string ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref "?")

let collector () = Domain.DLS.get collector_key
let current_label () = !(Domain.DLS.get current_label_key)

let start_collecting () = collector () := Some (ref [])
let set_label l = Domain.DLS.get current_label_key := l

let collected () =
  match !(collector ()) with None -> [] | Some acc -> List.rev !acc

let stop_collecting () =
  let out = collected () in
  collector () := None;
  out

let result ~ops ~cycles =
  let r =
    { ops; cycles; ops_per_sec = Mm_util.Stats.ops_per_second ~ops ~cycles }
  in
  (match !(collector ()) with
  | None -> ()
  | Some acc -> acc := (current_label (), r) :: !acc);
  r

(* Reset every piece of once-process-global (now domain-local) state a
   simulation world can observe, so a parallel task's behaviour — and
   the text of anything it reports (lock ids, RCU callback ids) — is
   independent of what ran before it on the same domain. Called by
   every parallel driver at task start, on the sequential ([-j 1]) path
   too, so outputs stay byte-identical across job counts.

   The one deliberate exception: while a tracing session is active
   ([Mm_obs.Trace.on ()]), the contention table and its lock ids are
   left alone — [--trace]/[--report] force [-j 1] precisely so one
   session can accumulate across the whole run, and the session owns
   both registries (only its subscribers write them). Bus subscribers
   are left alone too: whoever subscribed owns the subscription. *)
let reset_world_state () =
  Mm_sim.Rcu_s.reset_ids ();
  Mm_sim.Mutant.arm None;
  Cortenmm.File.reset_ids ();
  Cortenmm.Blockdev.reset_ids ();
  Cortenmm.Vm_object.reset_ids ();
  if not (Mm_obs.Trace.on ()) then Mm_obs.Contention.reset ();
  collector () := None;
  set_label "?"

(* Run a three-phase benchmark in one world:
   - [setup] runs alone on cpu 0 (global preparation);
   - [prep cpu] runs on every cpu in parallel (per-thread preparation);
   - [measure cpu] runs on every cpu in parallel; the returned cycle count
     is from the last barrier release to the last measure completion. *)
let run_phases ?(setup = fun () -> ()) ?(prep = fun _ -> ()) ~ncpus ~measure ()
    =
  let w = Engine.create ~ncpus in
  let b1 = Barrier.make ~total:ncpus in
  let b2 = Barrier.make ~total:ncpus in
  let start = Array.make ncpus 0 in
  let finish = Array.make ncpus 0 in
  for cpu = 0 to ncpus - 1 do
    Engine.spawn w ~cpu (fun () ->
        if cpu = 0 then setup ();
        Barrier.wait b1;
        prep cpu;
        Barrier.wait b2;
        start.(cpu) <- Engine.now ();
        if Mm_obs.Bus.on () then
          Engine.obs (Mm_obs.Event.Span_begin { name = "measure" });
        measure cpu;
        if Mm_obs.Bus.on () then
          Engine.obs (Mm_obs.Event.Span_end { name = "measure" });
        finish.(cpu) <- Engine.now ())
  done;
  Engine.run w;
  let t0 = Array.fold_left min max_int start in
  let t1 = Array.fold_left max 0 finish in
  t1 - t0

(* Run [f cpu] on each of [ncpus] virtual CPUs with no setup; returns the
   completion time (max over CPUs, in cycles). Only safe for benchmarks
   whose world is fresh (no state carried from another world). *)
let run_threads ~ncpus f =
  let w = Engine.create ~ncpus in
  for cpu = 0 to ncpus - 1 do
    Engine.spawn w ~cpu (fun () -> f cpu)
  done;
  Engine.run w;
  Engine.max_time w
