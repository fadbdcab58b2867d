(** Schedule files: a self-contained, committable description of one
    schedcheck run — workload parameters plus the engine tie-break key
    sequence. Replaying a schedule reproduces the run bit-for-bit (the
    simulation is a deterministic function of the keys). *)

type t = {
  protocol : string;  (** ["adv"] or ["rw"] *)
  cpus : int;
  ops : int;  (** operations per cpu *)
  workload_seed : int;
  mutant : string;  (** {!Mm_sim.Mutant.name}, or ["none"] *)
  keys : int array;  (** may be empty: fifo order *)
}

val save : t -> string -> unit

val load : string -> (t, string) result
(** [Error msg] on I/O or parse failure; [msg] is ready to print. *)
