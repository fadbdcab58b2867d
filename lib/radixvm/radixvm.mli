(** RadixVM baseline (Clements et al., EuroSys'13): radix-tree address
    space with per-page metadata, per-core private page tables (no
    coherence traffic on PTE installs), and precise per-core TLB
    shootdown tracking. *)

type t

type fault_outcome = Handled | Sigsegv

exception Fault of int

val create : ?isa:Mm_hal.Isa.t -> ncpus:int -> unit -> t
val page_size : t -> int
val phys : t -> Mm_phys.Phys.t
val tlb : t -> Mm_tlb.Tlb.t

val mmap : t -> ?addr:int -> len:int -> perm:Mm_hal.Perm.t -> unit -> int
val munmap : t -> addr:int -> len:int -> unit
val page_fault : t -> vaddr:int -> write:bool -> fault_outcome
val touch : t -> vaddr:int -> write:bool -> unit
val touch_range : t -> addr:int -> len:int -> write:bool -> unit

val replicated_pt_bytes : t -> int
(** Total page-table bytes across all per-core replicas — RadixVM's
    memory cost (Fig 22). *)

val radix_bytes : t -> int

val probe : t -> (int * int) list -> string
(** The differential oracle's observation of the ranges, one
    {!Mm_hal.Probe} byte per page, read from the radix tree (the
    authoritative state; per-core PTs are caches). Charges nothing. *)

val fork : t -> t
(** Eager-copy fork (RadixVM claims no COW): the child gets its own radix
    tree with freshly copied frames and empty per-core page tables that
    refill on its own faults. *)

val destroy : t -> unit
(** Free every mapped frame, the radix-tree bytes and the per-core
    page-table replicas (process exit). *)

val write_value : t -> vaddr:int -> value:int -> unit
(** Touch for write, then store a data token in the page's frame. Raises
    {!Fault} when unmapped. *)

val read_value : t -> vaddr:int -> int
(** Touch for read, then load the page's data token. Raises {!Fault}
    when unmapped. *)
