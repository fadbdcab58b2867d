(** Phase-fair readers-writer lock model with optional BRAVO reader bias
    (the paper's BRAVO-pfqlock, used by CortenMM_rw). *)

type t

val make : ?bravo:bool -> ?id:int -> ?name:string -> unit -> t
(** [id] is a lock id reserved earlier with {!Mm_obs.Contention.fresh_id}
    (a fresh one is drawn when absent). [name] labels the lock in
    contention reports and traces; unnamed locks appear as [rwlock#<id>]. *)

val set_name : t -> string -> unit
val id : t -> int

val read_lock : t -> unit
val read_unlock : t -> unit
val write_lock : t -> unit
val write_unlock : t -> unit

val downgrade : t -> unit
(** Writer becomes a reader without releasing (used by Linux munmap). *)

val upgrade : t -> unit
(** Release read side, then acquire write side (not atomic; callers must
    re-validate, as the Linux page-fault path does). *)

val readers : t -> int
val writer_active : t -> bool
val read_acqs : t -> int
val write_acqs : t -> int
val revocations : t -> int
