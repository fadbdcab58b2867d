(* The instrumentation bus: one emission point, a subscriber list.

   Domain-local: each domain of a parallel driver observes only the
   worlds it runs (schedcheck shards its seed campaigns across domains,
   each with its own checker; tracing forces a single domain). *)

type subscription = { deliver : Event.t -> unit }

type state = { mutable subs : subscription list; mutable seq : int }

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { subs = []; seq = 0 })

let subscribe deliver =
  let s = Domain.DLS.get state_key in
  let sub = { deliver } in
  s.subs <- s.subs @ [ sub ];
  sub

let unsubscribe sub =
  let s = Domain.DLS.get state_key in
  s.subs <- List.filter (fun x -> x != sub) s.subs

let on () = (Domain.DLS.get state_key).subs <> []

let emit ~time ~cpu payload =
  let s = Domain.DLS.get state_key in
  match s.subs with
  | [] -> ()
  | subs ->
    let e = { Event.seq = s.seq; time; cpu; payload } in
    s.seq <- s.seq + 1;
    List.iter (fun sub -> sub.deliver e) subs

let reset_seq () = (Domain.DLS.get state_key).seq <- 0
