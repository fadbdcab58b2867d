(* The event taxonomy: the one history every instrumentation site
   announces on {!Bus} — lock, RCU and cursor-transaction transitions,
   TLB and page-table maintenance, faults, frame, object and reclaim
   lifecycles. The trace ring ({!Trace}) records it for Perfetto and the
   text form, {!Metrics} and {!Contention} are folds over it, and the
   runtime invariant checker ([Mm_verif.Live]) consumes the same stream.

   Every event is stamped with the *virtual* time and CPU of the
   emitting fiber (time 0 and cpu -1 outside a fiber) and a global
   emission sequence number. Because the simulator is deterministic
   (fibers are replayed in virtual-time order with sequence tie-breaks),
   the full event stream of a run is a pure function of the workload and
   its seeds: two identical runs yield byte-identical streams. Emitting
   an event never advances virtual time, so observation is invisible to
   the simulation itself.

   Spans (lock waits, cursor locking, page faults) are emitted at their
   *completion*, carrying their duration — the exporter reconstructs the
   interval as [time - span, time]. This avoids begin/end pairing state
   in the hot paths. *)

type lock_kind = Mutex | Rw_read | Rw_write

let lock_kind_name = function
  | Mutex -> "mutex"
  | Rw_read -> "rw-read"
  | Rw_write -> "rw-write"

type payload =
  (* Lock protocol events. [lock] is the registry id ({!Contention}) and
     [name] the lock's own label (not printed); the acting CPU is the
     event's [cpu] stamp. *)
  | Lock_acquire of
      { lock : int; kind : lock_kind; wait : int; name : string option }
  | Lock_release of
      { lock : int; kind : lock_kind; held : int; name : string option }
  | Lock_contend of { lock : int; kind : lock_kind }
  | Lock_downgrade of { lock : int }
      (* rwlock writer -> reader, right after its write-side
         [Lock_release]: the releasing CPU now holds a read lock. *)
  (* RCU: read-side sections, deferred frees, grace-period completion. *)
  | Rcu_enter
  | Rcu_exit
  | Rcu_defer of { cb : int; waiting : bool array; pending : int }
      (* [waiting.(c)]: cpu [c] was inside a read-side section when
         callback [cb] was deferred; the grace period must wait for it.
         [pending]: callbacks still waiting after this one. *)
  | Rcu_gp of { callbacks : int }
  | Rcu_fire of { cb : int } (* callback [cb] ran *)
  (* TLB maintenance. *)
  | Tlb_shootdown of { vpns : int; targets : int; ipis : int }
  | Tlb_latr_drain of { entries : int }
  | Tlb_batch_flush of { stalls : int list }
      (* a batch of deferred shootdowns completed; [stalls]: each
         record's enqueue-to-flush cycles *)
  (* Page-table structure changes. *)
  | Pt_split of { vaddr : int; level : int }
  | Pt_free of { level : int; pages : int }
  (* Transactional interface: a cursor transaction over [lo, hi) of
     address space [asp] is active from its [Cursor_lock] to its
     [Cursor_commit] (announced before the commit releases any lock). *)
  | Cursor_lock of { asp : int; lo : int; hi : int; locked : int; span : int }
  | Cursor_commit of { asp : int; lo : int; hi : int; flushed : int }
  | Stale_retry (* the adv protocol's retry loop fired (Fig 6 L10-13) *)
  (* Fault path. *)
  | Page_fault of { vaddr : int; write : bool; span : int }
  (* Physical frames. *)
  | Frame_allocated of { pfn : int; pages : int; splits : int }
      (* [splits]: buddy splits the allocation took (not printed) *)
  | Frame_returned of { pfn : int; pages : int; merges : int }
      (* Every return to the buddy allocator, with the merges it took. *)
  | Frame_deferred of { pfn : int; pages : int }
      (* The free waits behind a pending (batched) TLB shootdown; the
         frame must not be reallocated before its [Frame_freed]. *)
  | Frame_freed of { pfn : int; pages : int }
      (* A deferred frame was released by its batch flush. *)
  (* Backing objects (shadow chains). [parent] is -1 for a chain bottom;
     [refs] is the count after the change. *)
  | Obj_created of { obj : int; parent : int }
  | Obj_ref of { obj : int; refs : int }
  | Obj_unref of { obj : int; refs : int }
  | Obj_collapsed of { obj : int; into : int }
      (* A singly-referenced chain parent merged its pages into its only
         shadow [into] and died. *)
  | Obj_destroyed of { obj : int }
  (* mlock and page-cache state. *)
  | Page_wired of { pfn : int } (* reclaim must never take the frame *)
  | Page_unwired of { pfn : int }
  | Page_dirtied of { file : int; page : int }
      (* reclaim must write the page back before dropping its frame *)
  (* Reclaim (the page-out daemon and swap-out). *)
  | Reclaim_waken of { free : int; target : int }
      (* a pass began: [free] data frames resident, reclaiming [target] *)
  | Reclaim_page of { pfn : int } (* a resident page was paged out *)
  | Reclaim_writeback of { file : int; page : int }
  | Reclaim_drop of { file : int; page : int; pfn : int }
      (* a page-cache frame was released after any required writeback *)
  | Reclaim_pass of { scanned : int; second_chances : int; swapped : int }
      (* one clock pass over an address space *)
  (* Generic instrumentation. *)
  | Span_begin of { name : string }
  | Span_end of { name : string }
  | Counter of { name : string; value : int }

type t = { seq : int; time : int; cpu : int; payload : payload }

let name = function
  | Lock_acquire _ -> "lock-acquire"
  | Lock_release _ -> "lock-release"
  | Lock_contend _ -> "lock-contend"
  | Lock_downgrade _ -> "lock-downgrade"
  | Rcu_enter -> "rcu-enter"
  | Rcu_exit -> "rcu-exit"
  | Rcu_defer _ -> "rcu-defer"
  | Rcu_gp _ -> "rcu-gp"
  | Rcu_fire _ -> "rcu-fire"
  | Tlb_shootdown _ -> "tlb-shootdown"
  | Tlb_latr_drain _ -> "tlb-latr-drain"
  | Tlb_batch_flush _ -> "tlb-batch-flush"
  | Pt_split _ -> "pt-split"
  | Pt_free _ -> "pt-free"
  | Cursor_lock _ -> "cursor-lock"
  | Cursor_commit _ -> "cursor-commit"
  | Stale_retry -> "stale-retry"
  | Page_fault _ -> "page-fault"
  | Frame_allocated _ -> "frame-allocated"
  | Frame_returned _ -> "frame-returned"
  | Frame_deferred _ -> "frame-deferred"
  | Frame_freed _ -> "frame-freed"
  | Obj_created _ -> "obj-created"
  | Obj_ref _ -> "obj-ref"
  | Obj_unref _ -> "obj-unref"
  | Obj_collapsed _ -> "obj-collapsed"
  | Obj_destroyed _ -> "obj-destroyed"
  | Page_wired _ -> "page-wired"
  | Page_unwired _ -> "page-unwired"
  | Page_dirtied _ -> "page-dirtied"
  | Reclaim_waken _ -> "reclaim-waken"
  | Reclaim_page _ -> "reclaim-page"
  | Reclaim_writeback _ -> "reclaim-writeback"
  | Reclaim_drop _ -> "reclaim-drop"
  | Reclaim_pass _ -> "reclaim-pass"
  | Span_begin _ -> "span-begin"
  | Span_end _ -> "span-end"
  | Counter _ -> "counter"

let kind_code = function Mutex -> 0 | Rw_read -> 1 | Rw_write -> 2

(* The integer arguments of the text and Perfetto forms. The kinds that
   predate the merged stream keep their argument lists exactly, so their
   text is unchanged: [asp], [cb], [waiting], a lock's [name] and an
   allocation's [splits] are not printed. *)
let payload_args = function
  | Lock_acquire { lock; kind; wait; _ } ->
    [ ("lock", lock); ("wait", wait); ("k", kind_code kind) ]
  | Lock_release { lock; kind; held; _ } ->
    [ ("lock", lock); ("held", held); ("k", kind_code kind) ]
  | Lock_contend { lock; kind } -> [ ("lock", lock); ("k", kind_code kind) ]
  | Lock_downgrade { lock } -> [ ("lock", lock) ]
  | Rcu_enter | Rcu_exit | Stale_retry -> []
  | Rcu_defer { pending; _ } -> [ ("pending", pending) ]
  | Rcu_gp { callbacks } -> [ ("callbacks", callbacks) ]
  | Rcu_fire { cb } -> [ ("cb", cb) ]
  | Tlb_shootdown { vpns; targets; ipis } ->
    [ ("vpns", vpns); ("targets", targets); ("ipis", ipis) ]
  | Tlb_latr_drain { entries } -> [ ("entries", entries) ]
  | Tlb_batch_flush { stalls } -> [ ("records", List.length stalls) ]
  | Pt_split { vaddr; level } -> [ ("vaddr", vaddr); ("level", level) ]
  | Pt_free { level; pages } -> [ ("level", level); ("pages", pages) ]
  | Cursor_lock { lo; hi; locked; span; _ } ->
    [ ("lo", lo); ("hi", hi); ("locked", locked); ("span", span) ]
  | Cursor_commit { lo; hi; flushed; _ } ->
    [ ("lo", lo); ("hi", hi); ("flushed", flushed) ]
  | Page_fault { vaddr; write; span } ->
    [ ("vaddr", vaddr); ("write", (if write then 1 else 0)); ("span", span) ]
  | Frame_allocated { pfn; pages; _ }
  | Frame_deferred { pfn; pages }
  | Frame_freed { pfn; pages } ->
    [ ("pfn", pfn); ("pages", pages) ]
  | Frame_returned { pfn; pages; merges } ->
    [ ("pfn", pfn); ("pages", pages); ("merges", merges) ]
  | Obj_created { obj; parent } -> [ ("obj", obj); ("parent", parent) ]
  | Obj_ref { obj; refs } | Obj_unref { obj; refs } ->
    [ ("obj", obj); ("refs", refs) ]
  | Obj_collapsed { obj; into } -> [ ("obj", obj); ("into", into) ]
  | Obj_destroyed { obj } -> [ ("obj", obj) ]
  | Page_wired { pfn } | Page_unwired { pfn } | Reclaim_page { pfn } ->
    [ ("pfn", pfn) ]
  | Page_dirtied { file; page } | Reclaim_writeback { file; page } ->
    [ ("file", file); ("page", page) ]
  | Reclaim_waken { free; target } -> [ ("free", free); ("target", target) ]
  | Reclaim_drop { file; page; pfn } ->
    [ ("file", file); ("page", page); ("pfn", pfn) ]
  | Reclaim_pass { scanned; second_chances; swapped } ->
    [ ("scanned", scanned); ("second_chances", second_chances);
      ("swapped", swapped) ]
  | Span_begin _ | Span_end _ -> []
  | Counter { value; _ } -> [ ("value", value) ]

(* The duration carried by a span-at-completion event, if any. *)
let span_of = function
  | Lock_acquire { wait; _ } -> Some wait
  | Lock_release { held; _ } -> Some held
  | Cursor_lock { span; _ } -> Some span
  | Page_fault { span; _ } -> Some span
  | _ -> None

(* Canonical single-line text form — the byte stream the determinism
   guarantee is stated over. *)
let to_string e =
  let args =
    (match e.payload with
    | Span_begin { name } | Span_end { name } | Counter { name; _ } ->
      Printf.sprintf " name=%s" name
    | _ -> "")
    ^ String.concat ""
        (List.map
           (fun (k, v) -> Printf.sprintf " %s=%d" k v)
           (payload_args e.payload))
  in
  Printf.sprintf "%d %d cpu%d %s%s" e.seq e.time e.cpu (name e.payload) args
