(* Physical page frames and their page descriptors.

   CortenMM borrows Linux's design of one descriptor per physical frame
   (paper §4.5, "struct page"). The descriptor carries:
   - the locks protecting the frame when it is a page-table page (the
     per-PT-page lock both protocols acquire). As with Linux's split PT
     lock ([ptlock_alloc] in the PT-page constructor), a lock is built
     only when first used, so user data pages never carry one. Their two
     lock ids are reserved when the descriptor is made, so every id seen
     in traces and contention reports is the same as if the locks were
     built eagerly, and a built lock stays with the descriptor across
     free and re-allocation,
   - the stale flag CortenMM_adv sets on unmapped PT pages (Fig 6/7),
   - the map count used by COW ("no need to COW if parent/child has left",
     Fig 8 L29),
   - a cache-line handle so concurrent access to the frame's contents can
     be charged for coherence traffic (data pages use it too),
   - an integer "contents" token standing in for the page's data, used by
     tests to verify copy-on-write and swap round-trips. *)

type kind =
  | Free
  | Pt_page (* a page-table page *)
  | Anon (* anonymous user data *)
  | File_page (* page-cache page of a simulated file *)
  | Kernel (* metadata arrays, VMA structs, etc. *)

let kind_to_string = function
  | Free -> "free"
  | Pt_page -> "pt"
  | Anon -> "anon"
  | File_page -> "file"
  | Kernel -> "kernel"

type t = {
  pfn : int;
  mutable kind : kind;
  mutable order : int; (* buddy order this frame was allocated with *)
  lock_id : int; (* the rwlock's id; the mutex's is [lock_id + 1] *)
  mutable mutex : Mm_sim.Mutex_s.t option; (* built by [lock] *)
  mutable rw : Mm_sim.Rwlock_s.t option; (* built by [rwlock] *)
  line : Mm_sim.Engine.Line.t;
  mutable stale : bool;
  mutable map_count : int;
  mutable wired : bool; (* mlock'd: the page-out daemon must never reclaim *)
  mutable contents : int;
}

let descriptor ~pfn ~lock_id =
  {
    pfn;
    kind = Free;
    order = 0;
    lock_id;
    mutex = None;
    rw = None;
    line = Mm_sim.Engine.Line.make ();
    stale = false;
    map_count = 0;
    wired = false;
    contents = 0;
  }

let make ~pfn =
  (* The rwlock takes the first id and the mutex the second. Traces and
     contention reports name locks by id, so this order is pinned. *)
  let lock_id = Mm_obs.Contention.fresh_id () in
  ignore (Mm_obs.Contention.fresh_id () : int);
  descriptor ~pfn ~lock_id

(* CortenMM_adv's per-PT-page spin lock (and Linux's split PT lock). *)
let lock t =
  match t.mutex with
  | Some m -> m
  | None ->
    let m = Mm_sim.Mutex_s.make ~id:(t.lock_id + 1) () in
    t.mutex <- Some m;
    m

(* CortenMM_rw's per-PT-page BRAVO-pfqlock. *)
let rwlock t =
  match t.rw with
  | Some l -> l
  | None ->
    let l = Mm_sim.Rwlock_s.make ~id:t.lock_id () in
    t.rw <- Some l;
    l

let has_locks t = Option.is_some t.mutex || Option.is_some t.rw

(* A placeholder for an empty descriptor slot; it draws no lock ids. *)
let vacant = descriptor ~pfn:(-1) ~lock_id:(-1)

let pp fmt t =
  Format.fprintf fmt "frame %#x (%s, maps=%d%s)" t.pfn
    (kind_to_string t.kind) t.map_count
    (if t.stale then ", stale" else "")
