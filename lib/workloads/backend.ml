(* The first-class backend signature: the typed boundary between the
   benchmark/oracle drivers and the five evaluated MM systems.

   The paper's central claim is that one interface can serve every MM
   design it evaluates; this module is our statement of that interface.
   Three deliberate choices:

   - capabilities are *data* ([caps]), not option-typed closures, so
     drivers and the differential oracle reason about what a backend
     supports without probing it;
   - errors are *values* ([Mm_hal.Errno.t] results), not exceptions, so
     two backends replaying one trace produce comparable outcome
     streams;
   - [probe] is a normalized observation (mapped? logically writable?
     resident? — one {!Mm_hal.Probe} byte per page) every backend can
     answer for a whole process in one pass, which is what the oracle
     diffs. *)

module Errno = Mm_hal.Errno

type kind =
  | Corten of Cortenmm.Config.t
  | Linux
  | Radixvm
  | Nros

let kind_name = function
  | Corten cfg -> Cortenmm.Config.name cfg
  | Linux -> "linux"
  | Radixvm -> "radixvm"
  | Nros -> "nros"

type caps = {
  demand_paging : bool; (* mmap is virtual; frames arrive at fault time *)
  has_mprotect : bool; (* mprotect implemented (RadixVM/NrOS: no) *)
  has_reclaim : bool; (* mlock/munlock + page-out under pressure (CortenMM) *)
}

type mem_stats = {
  pt_bytes : int; (* page tables, all replicas *)
  kernel_bytes : int; (* VMAs, metadata arrays, radix nodes... *)
  resident_bytes : int; (* user data frames, now *)
  peak_resident_bytes : int; (* user data frames, high-water mark *)
}

(* Normalized observation of one page, decoded from its probe byte for
   the oracle's messages. [writable] is the *logical* writability the MM
   would resolve for a store (a COW-protected page counts as writable:
   the write succeeds after the break). [resident] is whether a physical
   frame currently backs the page. *)
type page_state =
  | P_unmapped
  | P_mapped of { writable : bool; resident : bool }

let page_state_of_code c =
  let c = Char.code c in
  if c land Mm_hal.Probe.mapped = 0 then P_unmapped
  else
    P_mapped
      {
        writable = c land Mm_hal.Probe.writable <> 0;
        resident = c land Mm_hal.Probe.resident <> 0;
      }

module type S = sig
  type t

  val name : string
  val kind : kind
  val caps : caps
  val create : ?isa:Mm_hal.Isa.t -> ncpus:int -> unit -> t
  val page_size : t -> int

  val mmap :
    t ->
    ?addr:int ->
    len:int ->
    perm:Mm_hal.Perm.t ->
    unit ->
    (int, Errno.t) result

  val munmap : t -> addr:int -> len:int -> (unit, Errno.t) result

  val mprotect :
    t -> addr:int -> len:int -> perm:Mm_hal.Perm.t -> (unit, Errno.t) result
  (** [Error ENOSYS] when [caps.has_mprotect] is false. *)

  val touch : t -> vaddr:int -> write:bool -> (unit, Errno.t) result
  (** One user access; [Error (SIGSEGV vaddr)] when it faults fatally. *)

  val touch_range : t -> addr:int -> len:int -> write:bool -> (unit, Errno.t) result
  (** Touch every page of the range; stops at the first faulting page. *)

  val probe : t -> (int * int) list -> string
  (** The oracle's observation: one {!Mm_hal.Probe} byte per page of the
      [(addr, len)] ranges, laid out in the given order ([len / page
      size] bytes per range). One call reads the whole list in one pass
      — on CortenMM one inspection transaction over the ranges' hull. It
      changes no state the MM's later behaviour depends on; it may
      charge simulated time in its own world. *)

  val fork : t -> (t, Errno.t) result
  (** A child instance duplicating this one's address space (same
      addresses, same logical contents). COW-capable backends share
      frames copy-on-write; the rest copy eagerly — observationally
      identical for private memory, which is what the oracle diffs. *)

  val destroy : t -> unit
  (** Tear the instance's address space down (process exit): it is left
      empty and may be repopulated, as exec does. *)

  val write_value : t -> vaddr:int -> value:int -> (unit, Errno.t) result
  (** A user store of a data token: touches for write, then records
      [value] as the page's contents — the observable the oracle uses to
      prove parent/child COW isolation. *)

  val read_value : t -> vaddr:int -> (int, Errno.t) result
  (** A user load of the page's data token. *)

  val mlock : t -> addr:int -> len:int -> (unit, Errno.t) result
  (** Populate and wire the range against reclaim. [Error ENOSYS] when
      [caps.has_reclaim] is false. *)

  val munlock : t -> addr:int -> len:int -> (unit, Errno.t) result
  (** Unwire the range (idempotent). [Error ENOSYS] without reclaim. *)

  val pressure : t -> target_pages:int -> (int, Errno.t) result
  (** Simulate memory pressure: wake the page-out daemon to reclaim up
      to [target_pages] pages from this instance's machine; returns how
      many it took. [Error ENOSYS] when [caps.has_reclaim] is false. *)

  val timer_tick : t -> unit
  val mem_stats : t -> mem_stats

  val set_shootdown_policy : t -> Mm_tlb.Tlb.policy -> unit
  (** Install a TLB shootdown policy on the backend's (primary) TLB —
      [Immediate] is every backend's default and the historical,
      byte-identical behavior. Setting a policy completes any pending
      batch first, so a driver can end a batched run with
      [set_shootdown_policy t Mm_tlb.Tlb.Immediate] to drain. *)

  val tlb_counters : t -> Mm_tlb.Tlb.counters
  (** Shootdown accounting (IPIs, batch flushes, worst deferral stall)
      of the same TLB, for the serving-mode SLO reports. *)
end

type b = (module S)
