(** The instrumentation bus: the single emission point for {!Event}s and
    its domain-local subscriber list. A tracing session ({!Trace.start} /
    {!Trace.stop}: the {!Metrics} and {!Contention} registries and the
    trace ring) and the runtime invariant checker ([Mm_verif.Live]) are
    its subscribers. With no subscriber an instrumentation site pays
    one check ({!on}); emitting never advances virtual time, so observed
    and unobserved runs produce bit-identical simulation results. *)

type subscription

val subscribe : (Event.t -> unit) -> subscription
(** Deliver every later event of this domain, after the subscribers
    already present. *)

val unsubscribe : subscription -> unit

val on : unit -> bool
(** Whether anything is subscribed — the guard every instrumentation
    site checks before building a payload. Emitting is all a site does:
    {!Metrics} and {!Contention} are written only by their subscribers. *)

val emit : time:int -> cpu:int -> Event.payload -> unit
(** Stamp the payload with the next sequence number and deliver it to
    every subscriber; no-op without one. Simulation code emits through
    [Mm_sim.Engine.obs], which supplies the fiber's time and CPU. *)

val reset_seq : unit -> unit
(** Restart sequence numbering at 0 (done by {!Trace.start}). *)
