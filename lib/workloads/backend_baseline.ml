(* The three baselines (Linux, RadixVM, NrOS) behind {!Backend.S}. They
   share one exception-speaking surface, so one functor converts at the
   boundary ([EINVAL] host-side, [Fault] to SIGSEGV, exhaustion to
   [ENOMEM]) and each system supplies only data. The conversions stay
   inline [try ... with]: a closure per call would allocate on [touch]. *)

module Errno = Mm_hal.Errno

module type MM = sig
  type t
  exception Fault of int
  val name : string
  val kind : Backend.kind
  val demand_paging : bool

  val mprotect :
    (t -> addr:int -> len:int -> perm:Mm_hal.Perm.t -> unit) option
  (** [None]: the system has no mprotect, and answers [ENOSYS]. *)

  val pt_bytes : t -> int
  val kernel_bytes : t -> int
  val create : ?isa:Mm_hal.Isa.t -> ncpus:int -> unit -> t
  val page_size : t -> int
  val phys : t -> Mm_phys.Phys.t
  val tlb : t -> Mm_tlb.Tlb.t
  val mmap : t -> ?addr:int -> len:int -> perm:Mm_hal.Perm.t -> unit -> int
  val munmap : t -> addr:int -> len:int -> unit
  val touch : t -> vaddr:int -> write:bool -> unit
  val touch_range : t -> addr:int -> len:int -> write:bool -> unit

  val probe : t -> (int * int) list -> string

  val fork : t -> t
  val destroy : t -> unit
  val write_value : t -> vaddr:int -> value:int -> unit
  val read_value : t -> vaddr:int -> int
end

module Make (M : MM) : Backend.S = struct
  type t = M.t

  let name = M.name
  let kind = M.kind

  let caps =
    { Backend.demand_paging = M.demand_paging; has_reclaim = false;
      has_mprotect = Option.is_some M.mprotect }

  let create = M.create
  let page_size = M.page_size

  let mmap t ?addr ~len ~perm () =
    match Errno.check_mmap ~page_size:(M.page_size t) ?addr ~len () with
    | Error _ as e -> e
    | Ok () -> (
      try Ok (M.mmap t ?addr ~len ~perm ())
      with Mm_phys.Buddy.Out_of_memory | Cortenmm.Va_alloc.Va_exhausted ->
        Error Errno.ENOMEM)

  let munmap t ~addr ~len =
    match Errno.check_range ~page_size:(M.page_size t) ~addr ~len with
    | Error _ as e -> e
    | Ok () -> Ok (M.munmap t ~addr ~len)

  let mprotect t ~addr ~len ~perm =
    match M.mprotect with
    | None -> Error Errno.ENOSYS
    | Some mprotect -> (
      match Errno.check_range ~page_size:(M.page_size t) ~addr ~len with
      | Error _ as e -> e
      | Ok () -> Ok (mprotect t ~addr ~len ~perm))

  let touch t ~vaddr ~write =
    try Ok (M.touch t ~vaddr ~write) with M.Fault v -> Error (Errno.SIGSEGV v)

  let touch_range t ~addr ~len ~write =
    try Ok (M.touch_range t ~addr ~len ~write)
    with M.Fault v -> Error (Errno.SIGSEGV v)

  let probe = M.probe

  let fork t =
    try Ok (M.fork t) with Mm_phys.Buddy.Out_of_memory -> Error Errno.ENOMEM

  let destroy = M.destroy

  let write_value t ~vaddr ~value =
    try Ok (M.write_value t ~vaddr ~value)
    with M.Fault v -> Error (Errno.SIGSEGV v)

  let read_value t ~vaddr =
    try Ok (M.read_value t ~vaddr) with M.Fault v -> Error (Errno.SIGSEGV v)

  let mlock _ ~addr:_ ~len:_ = Error Errno.ENOSYS
  let munlock _ ~addr:_ ~len:_ = Error Errno.ENOSYS
  let pressure _ ~target_pages:_ = Error Errno.ENOSYS

  let timer_tick t =
    if Mm_sim.Engine.in_fiber () then
      Mm_tlb.Tlb.timer_tick (M.tlb t) ~cpu:(Mm_sim.Engine.cpu_id ())

  let set_shootdown_policy t p = Mm_tlb.Tlb.set_policy (M.tlb t) p
  let tlb_counters t = Mm_tlb.Tlb.counters (M.tlb t)

  let mem_stats t =
    let u = Mm_phys.Phys.usage (M.phys t) in
    {
      Backend.pt_bytes = M.pt_bytes t;
      kernel_bytes = M.kernel_bytes t;
      resident_bytes = u.Mm_phys.Phys.anon_bytes;
      peak_resident_bytes = Mm_phys.Phys.peak_data_bytes (M.phys t);
    }
end

(* Linux: the VMA-tree design, demand paging and mprotect. *)
let linux : Backend.b =
  (module Make (struct
    include Mm_linux.Linux_mm
    let name = "linux"
    let kind = Backend.Linux
    let demand_paging = true
    let mprotect = Some mprotect
    let pt_bytes t = pt_page_count t * page_size t
    let kernel_bytes t = (Mm_phys.Phys.usage (phys t)).Mm_phys.Phys.kernel_bytes
  end))

(* RadixVM (EuroSys'13): no mprotect — the radix tree's per-page
   metadata fixes permissions at map time. *)
let radixvm : Backend.b =
  (module Make (struct
    include Mm_radixvm.Radixvm
    let name = "radixvm"
    let kind = Backend.Radixvm
    let demand_paging = true
    let mprotect = None
    let pt_bytes = replicated_pt_bytes
    let kernel_bytes = radix_bytes
  end))

(* NrOS (OSDI'21): maps eagerly through the replication log (no demand
   paging) and has no mprotect. *)
let nros : Backend.b =
  (module Make (struct
    include Mm_nros.Nros
    let name = "nros"
    let kind = Backend.Nros
    let demand_paging = false
    let mprotect = None
    let create ?isa ~ncpus () = create ?isa ~ncpus ()
    let pt_bytes = replicated_pt_bytes
    let kernel_bytes t = (Mm_phys.Phys.usage (phys t)).Mm_phys.Phys.kernel_bytes
  end))
