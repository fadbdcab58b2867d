(** Registry of named counters and log2-bucketed histograms, a fold over
    the event stream: only {!record} writes it. Deterministic
    (enumeration is sorted by name). *)

type histogram

val record : Event.t -> unit
(** The registry's one writer, a {!Bus} subscriber ({!Trace.start}
    subscribes it): maps each event kind to its counters and
    histograms. *)

val unregistered : string -> histogram
(** A fresh histogram outside the registry: it never appears in
    {!histograms}/{!dump} and is not shared by name, so per-run latency
    recorders (e.g. the serving mode's per-op histograms) stay
    independent across runs in one process. *)

val observe : histogram -> int -> unit

val mean : histogram -> float
val samples : histogram -> int
val total : histogram -> int
val max_value : histogram -> int

val quantile : histogram -> float -> int
(** [quantile h q] is an upper bound on the q-th quantile: the inclusive
    upper edge [2^(b+1)-1] of the log2 bucket [b] holding the observation
    at rank [ceil (q * n)], clamped to the exact observed maximum.

    Error bound: if the exact rank-[ceil (q*n)] value is [x >= 1], the
    returned [r] satisfies [x <= r <= max 1 (2*x - 1)] — never an
    underestimate, and strictly less than [2x]. An exact value of [0]
    reports at most [1] (bucket 0's edge). Tail quantiles (p99, p999)
    are therefore correct to within a factor of 2, while [mean], [total],
    [max_value] and [samples] are exact. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

val histograms : unit -> (string * histogram) list

val reset : unit -> unit

val dump : unit -> string
(** Plain-text rendering of the whole registry. *)
