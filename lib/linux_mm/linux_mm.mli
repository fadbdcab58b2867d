(** The Linux-style two-level-abstraction baseline: VMA interval tree +
    page tables, with the locking structure of the paper's Table 1 /
    Fig 2 (coarse [mmap_lock], per-VMA locks, coarse + fine page-table
    locks, per-fault mm-wide accounting). *)

type t

type fault_outcome = Handled | Sigsegv

exception Fault of int

val create : ?isa:Mm_hal.Isa.t -> ncpus:int -> unit -> t
val page_size : t -> int
val phys : t -> Mm_phys.Phys.t
val tlb : t -> Mm_tlb.Tlb.t
val vma_count : t -> int
val pt_page_count : t -> int

val mmap : t -> ?addr:int -> len:int -> perm:Mm_hal.Perm.t -> unit -> int
(** Takes the writer side of [mmap_lock]; merges with adjacent VMAs of
    equal permissions (the vma_merge fast path). *)

val munmap : t -> addr:int -> len:int -> unit
(** The Fig 2 sequence: write-lock, mark VMAs, split the tree, downgrade,
    clear page tables under fine locks, synchronous TLB shootdown. *)

val mprotect : t -> addr:int -> len:int -> perm:Mm_hal.Perm.t -> unit

val page_fault : t -> vaddr:int -> write:bool -> fault_outcome
(** Lock-free maple-tree find, per-VMA reader lock, PT population under
    the coarse [page_table_lock] (upper levels) and the per-PT-page lock
    (leaf), plus the RSS/LRU accounting atomic. *)

val touch : t -> vaddr:int -> write:bool -> unit
val touch_range : t -> addr:int -> len:int -> write:bool -> unit

val fork : t -> t
(** VMA-list enumeration + streaming page-table copy with COW. *)

val destroy : t -> unit

val probe : t -> (int * int) list -> string
(** The differential oracle's observation of the ranges, one
    {!Mm_hal.Probe} byte per page: the VMA gives mapped-ness and the
    logical writability of a page with no frame yet (COW counts as
    writable). Charges only the VMA lookups. *)

val write_value : t -> vaddr:int -> value:int -> unit
val read_value : t -> vaddr:int -> int
val check_well_formed : t -> unit
