(** Per-lock contention profile: serialized (wait) cycles, hold time,
    acquisition counts, folded from the bus's lock events. Locks register
    lazily on first observed use. *)

type entry = {
  id : int;
  kind : Event.lock_kind;
  name : string;
  mutable acquisitions : int;
  mutable contended : int;
  mutable wait_cycles : int;
  mutable max_wait : int;
  mutable hold_cycles : int;
}

val fresh_id : unit -> int
(** A unique lock id; called once per lock at creation. The counter is
    reset by {!reset} (i.e. at {!Trace.start}), so identical runs started
    after a reset see identical ids. *)

val record : Event.t -> unit
(** The table's one writer, a {!Bus} subscriber ({!Trace.start}
    subscribes it). *)

val name_of : int -> string
val ranked : unit -> entry list
(** All profiled locks, most serialized cycles first (deterministic). *)

val top : unit -> entry option
val report : ?limit:int -> unit -> string
val reset : unit -> unit
