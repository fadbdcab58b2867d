(* Preemption-based RCU model (paper §4.5: "a simple preemption-based RCU").

   Read-side critical sections are nearly free: entering/leaving toggles a
   per-CPU nesting counter (no shared-line traffic) — this is what makes
   CortenMM_adv's lock-free traversal phase scale.

   Deferred frees ("the RCU monitor", Fig 6 L35): when a PT page is retired
   the monitor records which CPUs are currently inside a read-side critical
   section; the free callback runs once all of them have exited (the grace
   period). A CPU that retires an object while itself inside a read section
   waits for its own exit too. *)

type callback = {
  cb_id : int; (* event correlation id (Rcu_defer -> Rcu_fire) *)
  waiting_on : bool array; (* per-CPU: still inside its read section *)
  mutable remaining : int;
  fn : unit -> unit;
}

(* Callback correlation ids: domain-local, unique across RCU instances
   within one observed run. Parallel drivers reset them at task start
   ([Mm_workloads.Runner.reset_world_state]) so the ids a run reports
   do not depend on what ran before it on the same domain. *)
let next_cb_id_key : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let fresh_cb_id () =
  let r = Domain.DLS.get next_cb_id_key in
  incr r;
  !r

let reset_ids () = Domain.DLS.get next_cb_id_key := 0

type t = {
  nesting : int array;
  mutable pending : callback list;
  mutable deferred : int;
  mutable completed : int;
  mutable immediate : int; (* frees that needed no grace period *)
}

let make ~ncpus =
  {
    nesting = Array.make ncpus 0;
    pending = [];
    deferred = 0;
    completed = 0;
    immediate = 0;
  }

let read_lock t =
  Engine.serialize ();
  Engine.tick Cost.rcu_toggle;
  let c = Engine.cpu_id () in
  t.nesting.(c) <- t.nesting.(c) + 1;
  if t.nesting.(c) = 1 && Mm_obs.Bus.on () then
    Engine.obs Mm_obs.Event.Rcu_enter

let in_read_section t ~cpu = t.nesting.(cpu) > 0

let quiesce t cpu =
  (* [cpu] left its read section: progress every pending grace period. *)
  let ready, rest =
    List.partition
      (fun cb ->
        if cb.waiting_on.(cpu) then begin
          cb.waiting_on.(cpu) <- false;
          cb.remaining <- cb.remaining - 1
        end;
        cb.remaining = 0)
      t.pending
  in
  t.pending <- rest;
  (match ready with
  | [] -> ()
  | _ when Mm_obs.Bus.on () ->
    Engine.obs (Mm_obs.Event.Rcu_gp { callbacks = List.length ready })
  | _ -> ());
  List.iter
    (fun cb ->
      t.completed <- t.completed + 1;
      if Mm_obs.Bus.on () then
        Engine.obs (Mm_obs.Event.Rcu_fire { cb = cb.cb_id });
      cb.fn ())
    ready

let read_unlock t =
  Engine.serialize ();
  Engine.tick Cost.rcu_toggle;
  let c = Engine.cpu_id () in
  if t.nesting.(c) <= 0 then failwith "Rcu_s.read_unlock: not in read section";
  t.nesting.(c) <- t.nesting.(c) - 1;
  if t.nesting.(c) = 0 then begin
    (* Exit is announced before [quiesce] so callbacks firing in this
       very quiescent state observe the reader as already gone. *)
    if Mm_obs.Bus.on () then Engine.obs Mm_obs.Event.Rcu_exit;
    quiesce t c
  end

let snapshot_readers t =
  let n = Array.length t.nesting in
  let waiting = Array.make n false in
  let remaining = ref 0 in
  for c = 0 to n - 1 do
    if t.nesting.(c) > 0 then begin
      waiting.(c) <- true;
      incr remaining
    end
  done;
  (waiting, !remaining)

let defer t fn =
  Engine.serialize ();
  Engine.tick Cost.cache_hit;
  t.deferred <- t.deferred + 1;
  let waiting, remaining = snapshot_readers t in
  let observed = Mm_obs.Bus.on () in
  let cb_id = if observed then fresh_cb_id () else 0 in
  (* Seeded bug: skip the grace period (use-after-free). *)
  let immediate = remaining = 0 || Mutant.armed Mutant.Rcu_no_gp in
  if immediate then begin
    t.immediate <- t.immediate + 1;
    t.completed <- t.completed + 1;
    fn ()
  end
  else t.pending <- { cb_id; waiting_on = waiting; remaining; fn } :: t.pending;
  (* Announced after an immediate callback has run: [fn] frees frames
     without yielding, so no read-side transition can slip in between,
     and the defer still precedes its fire in the stream. *)
  if observed then begin
    Engine.obs
      (Mm_obs.Event.Rcu_defer
         {
           cb = cb_id;
           waiting = Array.copy waiting;
           pending = List.length t.pending;
         });
    if immediate then Engine.obs (Mm_obs.Event.Rcu_fire { cb = cb_id })
  end

let synchronize t =
  Engine.serialize ();
  let _, remaining = snapshot_readers t in
  if remaining > 0 then
    Engine.park (fun p ->
        let waiting, remaining = snapshot_readers t in
        if remaining = 0 then Engine.unpark p ~at:(Engine.parked_time p)
        else
          t.pending <-
            {
              cb_id = (if Mm_obs.Bus.on () then fresh_cb_id () else 0);
              waiting_on = waiting;
              remaining;
              fn = (fun () -> Engine.unpark p ~at:(Engine.now ()));
            }
            :: t.pending)

let pending_callbacks t = List.length t.pending
let deferred t = t.deferred
let completed t = t.completed
let immediate t = t.immediate
