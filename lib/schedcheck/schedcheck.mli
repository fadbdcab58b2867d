(** Schedule exploration for the concurrent core.

    Runs small concurrent cursor workloads (overlapping mmap / munmap /
    mprotect / touch ranges over a fixed window, fork-clone,
    promote_huge) under controllable tie-break policies
    ({!Mm_sim.Sched}), checking

    - protocol safety live ({!Mm_verif.Live}: mutual exclusion, the P1
      transaction property, RCU grace periods) plus deadlock-freedom,
    - functional correctness of the final address space against a
      sequential reference replay in observed commit order.

    On violation the tie-break key sequence is shrunk greedily (shorter
    prefix, fewer forced preemptions) to a minimal deterministic
    counterexample, exportable as a {!Schedule} file. *)

(** {2 Configuration and single runs} *)

type config = {
  protocol : Cortenmm.Config.t;  (** {!Cortenmm.Config.adv} or [rw] *)
  cpus : int;
  ops_per_cpu : int;
  workload_seed : int;  (** generates the deterministic op streams *)
  mutant : Mm_sim.Mutant.t option;
      (** seeded bug armed during the run (the reference replay runs
          disarmed) *)
}

type run = {
  violations : string list;  (** empty means the run was clean *)
  keys : int array;  (** tie-break keys a [random] policy recorded *)
}

val run_once : config -> sched:(unit -> Mm_sim.Sched.t) -> run
(** Execute the workload in a fresh world built from [sched ()].
    Disarms the mutant and unsubscribes its {!Mm_obs.Bus} checker on
    exit. *)

(** {2 Exploration and shrinking} *)

type outcome =
  | Clean of { seeds : int }
  | Violation of {
      sched_seed : int;  (** the seed whose schedule violated *)
      keys : int array;  (** minimized key sequence *)
      violations : string list;
      shrink_runs : int;  (** replays spent shrinking *)
    }

val explore :
  ?amplitude:int ->
  ?seed0:int ->
  ?shrink_budget:int ->
  ?jobs:int ->
  seeds:int ->
  config ->
  outcome
(** Try [seeds] seeded-random schedules ([seed0], [seed0+1], ...); on
    the first violation, shrink (within [shrink_budget] replays,
    default 200) and stop. [amplitude] (default 8) bounds the drawn
    keys. [jobs] (default 1) shards the seed campaign across domains;
    the violation reported is always the lowest-seed one — the same a
    sequential scan finds first — so the outcome (seed, keys, wording)
    is identical for any value. *)

val shrink : config -> keys:int array -> budget:int -> int array * int
(** [shrink cfg ~keys ~budget] is [(smaller_keys, runs_used)]; the
    returned keys still violate. Exposed for tests. *)

(** {2 Schedule files} *)

val schedule_of : config -> int array -> Schedule.t
val config_of_schedule : Schedule.t -> (config, string) result

val replay_schedule : Schedule.t -> (string list, string) result
(** Re-run a schedule deterministically; [Ok violations] is the
    verdict ([[]] = clean). [Error] for an unknown protocol/mutant
    name. *)
