(** MM operation traces: a portable text format (regions referenced by
    symbolic ids so a trace replays on any system regardless of its VA
    allocator), a synthetic generator with workload profiles, the one
    interpreter that runs a trace op on a system, and a timed replayer
    built on it. *)

type op =
  | T_mmap of { id : int; len : int; writable : bool }
  | T_munmap of { id : int }
  | T_touch of { id : int; page : int; write : bool }
  | T_mprotect of { id : int; writable : bool }
  | T_fork of { child : int }  (** the executing process is the parent *)
  | T_exit
  | T_write of { id : int; page : int; value : int }
      (** store a data token (touches for write first) *)
  | T_read of { id : int; page : int }  (** load the page's data token *)
  | T_mlock of { id : int }  (** populate + wire the whole region *)
  | T_munlock of { id : int }  (** unwire the whole region *)
  | T_pressure of { pages : int }
      (** wake the page-out daemon to reclaim [pages] pages *)

type entry = { cpu : int; proc : int; op : op }
(** [proc] is the process executing the operation; 0 is the root.
    Serialized as a trailing ["@<proc>"], omitted for process 0, so
    pre-fork traces round-trip byte-identically. *)

type t = { ncpus : int; entries : entry array }

exception Parse_error of int * string

val entry_to_string : entry -> string
val entry_of_string : line:int -> string -> entry
val save : t -> string -> unit
val load : string -> t

type profile = Churn | Faults | Mixed | Forks | Reclaim

val profile_name : profile -> string
val profile_of_name : string -> profile option

val generate : profile:profile -> ncpus:int -> ops_per_cpu:int -> seed:int -> t
(** Deterministic synthetic trace: [Churn] = allocator-like
    map/touch/unmap cycles; [Faults] = few large regions, many touches;
    [Mixed] = a blend with occasional mprotects; [Forks] = per-CPU
    process trees (depth <= 3) of fork / COW write / read / exit, every
    forked process exiting before its CPU's stream ends; [Reclaim] =
    value traffic under mlock/munlock and pressure storms (format v3
    ops, capability-gated on backends without a page-out daemon). *)

(** {2 The interpreter}

    The trace language's one meaning: {!exec} is the only code that turns
    a trace op into {!System} operations, and both {!replay} and the
    differential oracle ({!Diff}) run every op through it. *)

type table
(** Per-replay state: each live process's {!System.t} and each
    [(proc, id)] region's [(addr, len)]. Only {!exec} updates it. *)

val table : System.t -> table
(** A fresh table whose process 0 (the root, which never exits) is the
    given instance. *)

val process : table -> int -> System.t
(** The live instance of a process; raises [Not_found] for a defunct or
    never-forked one. *)

val regions : table -> ((int * int) * (int * int)) list
(** Every live [((proc, id), (addr, len))], sorted by key. *)

type produced =
  | Unit
  | Region of (int * int)  (** mmap, munmap: the [(addr, len)] (un)mapped *)
  | Child of System.t * (int * (int * int)) list
      (** fork: the child and the [(id, (addr, len))] regions it
          inherited, sorted by id *)
  | Value of int  (** read: the page's data token *)
  | Reclaimed of int  (** pressure: pages the daemon took *)

type step =
  | Skipped
      (** a defunct process, an unknown region, or a page outside its
          region: nothing ran *)
  | Masked
      (** the backend lacks the op's capability (mprotect, or reclaim for
          mlock/munlock/pressure): nothing ran *)
  | Failed of Mm_hal.Errno.t
  | Done of produced

val exec : table -> entry -> step
(** Run one entry on the process it names. A munmap drops its region
    before the call (which can yield to another CPU's fiber) and puts it
    back if the call fails; a fork registers the child with the parent's
    regions; an exit destroys the process and drops its regions. *)

type replay_stats = {
  result : Runner.result;
  mmaps : int;
  munmaps : int;
  touches : int;  (** in-range touches, writes and reads, failed or not *)
  forks : int;
  faults_denied : int;
      (** failed touches, writes, reads, mlocks and munlocks *)
}

val replay : ?isa:Mm_hal.Isa.t -> kind:System.kind -> t -> replay_stats
(** Replay the trace's per-CPU streams, one fiber per CPU over one shared
    {!table}, each entry through {!exec}; skipped and masked ops count
    nowhere. A failed mmap, munmap or mprotect raises
    {!Mm_hal.Errno.Error}. *)
