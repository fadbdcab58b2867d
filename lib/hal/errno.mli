(** Typed error values for the MM operation surface: backends return
    these as data ([('a, Errno.t) result]) instead of raising, so
    workloads and the differential oracle observe failure outcomes
    deterministically. *)

type t =
  | EINVAL  (** malformed request (the rule is {!check_range}) *)
  | ENOMEM  (** out of physical frames or virtual address space *)
  | EACCES  (** permission denied at syscall level *)
  | ENOSYS  (** the backend does not implement this operation *)
  | EAGAIN  (** transient resource shortage; retry (mlock under pressure) *)
  | EPERM  (** operation exceeds a hard limit, e.g. the wired-page quota *)
  | SIGSEGV of int  (** access faulted; carries the faulting vaddr *)

exception Error of t
(** Bridge for callers that treat a failure as fatal (see {!ok_exn}). *)

val ok_exn : ('a, t) result -> 'a
(** The [Ok] value; raises {!Error} on [Error]. *)

val check_range : page_size:int -> addr:int -> len:int -> (unit, t) result
(** [Error EINVAL] when [len <= 0], [addr < 0] or [addr] is not a
    multiple of [page_size] — the one statement of the rule. *)

val check_mmap :
  page_size:int -> ?addr:int -> len:int -> unit -> (unit, t) result
(** {!check_range} for an mmap; without a hint only [len] is checked. *)

val to_string : t -> string

val label : t -> string
(** Constructor name without payloads — [SIGSEGV _] compares equal
    across backends whose VA allocators place regions differently. *)

val same_class : t -> t -> bool
(** [same_class a b] compares by {!label}. *)

val pp : Format.formatter -> t -> unit
