(** The tracing session: {!Metrics.record}, {!Contention.record} and
    per-vCPU event rings, subscribed to the {!Bus}. Recording never
    advances virtual time, so traced and untraced runs produce
    bit-identical simulation results. *)

val start : ?capacity:int -> unit -> unit
(** Open a session (per-vCPU ring capacity defaults to 65536 events),
    replacing any open one. Resets {!Metrics}, {!Contention} — including
    the lock-id counter — and the bus sequence number, so identical runs
    after [start] yield byte-identical streams. The registries see every
    event, including those the rings drop. *)

val on : unit -> bool
(** Whether a session is active. *)

val events : unit -> Event.t list
(** The merged stream so far, in emission order. Events emitted outside
    a fiber (cpu -1) are not recorded. *)

val dropped : unit -> int
(** Events lost to ring wraparound. *)

val stop : unit -> Event.t list
(** Close the session and return the merged stream. *)

val to_text : Event.t list -> string
(** Canonical text form of a stream (one event per line). *)
