(** The global page-out daemon: reclaims from every registered address
    space (anonymous pages, kswapd-style second-chance clock scan over
    the hardware accessed bits, to swap) and file object (page-cache
    writeback + drop through the pagers), driven by free-frame
    watermarks over {!Mm_phys.Phys.data_frames}. Wired
    (mlock'd) pages are never taken; dirty pages are written back before
    their frame is dropped; unmaps run inside transactions so TLB
    shootdowns commit before frame reuse. *)

type stats = {
  mutable scanned : int;  (** anonymous leaves the clock hand visited *)
  mutable second_chances : int;  (** hot pages given a second chance *)
  mutable swapped : int;  (** anonymous pages swapped out *)
  mutable file_written_back : int;
  mutable file_dropped : int;
  mutable wakeups : int;
}

type t

val create : ?low:int -> ?high:int -> Kernel.t -> dev:Blockdev.t -> unit -> t
(** A daemon swapping to [dev]. Defaults: [high = max_int] (never wakes
    on {!balance}), [low = 0]. *)

val set_watermarks : t -> low:int -> high:int -> unit
val stats : t -> stats
val dev : t -> Blockdev.t

val register_space : t -> Addr_space.t -> unit
val unregister_space : t -> Addr_space.t -> unit
val register_file : t -> File.t -> unit

val age : t -> unit
(** One clock pass over every registered space that reclaims nothing:
    it only strips accessed bits, so pages not touched before the next
    pass are cold. *)

val run_once : t -> target:int -> int
(** One pass — page cache first, then the clock scan of each registered
    space — reclaiming up to [target] pages. Returns how many were
    reclaimed. *)

val pressure : t -> target_pages:int -> int
(** Force a reclaim of [target_pages] pages across all registered
    backing stores; returns how many were reclaimed (stops early after
    two dry passes). *)

val balance : t -> int
(** The kswapd wakeup: when resident data frames exceed the high
    watermark, reclaim down to the low one. Returns pages reclaimed. *)
