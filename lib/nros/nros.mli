(** NrOS baseline (Bhardwaj et al., OSDI'21): node replication — every
    mutating MM operation is appended to a shared log (a global
    serialization point) and applied to NUMA-local replicas under coarse
    per-replica locks. No demand paging: mmap backs regions eagerly. *)

type t

type fault_outcome = Handled | Sigsegv

exception Fault of int

val create : ?isa:Mm_hal.Isa.t -> ?nreplicas:int -> ncpus:int -> unit -> t
val page_size : t -> int
val phys : t -> Mm_phys.Phys.t
val tlb : t -> Mm_tlb.Tlb.t

val mmap : t -> ?addr:int -> len:int -> perm:Mm_hal.Perm.t -> unit -> int
(** Eager: allocates and maps every page through the log. *)

val munmap : t -> addr:int -> len:int -> unit

val touch : t -> vaddr:int -> write:bool -> unit
(** Consults the local replica (replaying the log if behind); raises
    {!Fault} for unmapped addresses — there is no demand paging. *)

val touch_range : t -> addr:int -> len:int -> write:bool -> unit
val replicated_pt_bytes : t -> int
val log_length : t -> int

val probe : t -> (int * int) list -> string
(** The differential oracle's observation of the ranges, one
    {!Mm_hal.Probe} byte per page, from the calling CPU's replica after
    one catch-up with the log. NrOS backs eagerly, so no mapped page is
    non-resident. *)

val fork : t -> t
(** Eager-copy fork (NrOS claims no COW): snapshot the parent's local
    replica under its lock after catching it up, map freshly copied
    frames into every child replica; the child starts an empty log. *)

val destroy : t -> unit
(** Catch every replica up with the log, then free the mapped frames and
    all replica page tables (process exit). The instance is left empty,
    with an empty log, and may be repopulated. *)

val write_value : t -> vaddr:int -> value:int -> unit
(** Touch for write, then store a data token in the page's frame. Raises
    {!Fault} when unmapped. *)

val read_value : t -> vaddr:int -> int
(** Touch for read, then load the page's data token. Raises {!Fault}
    when unmapped. *)
