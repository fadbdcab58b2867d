(* Fixed-capacity ring buffer: the per-vCPU event store of the tracer.

   Pushing beyond the capacity overwrites the oldest entries (and counts
   them), so a long run keeps the *tail* of its history — what one wants
   when inspecting how a run ended — at a bounded, allocation-free cost
   per event after warmup. *)

type 'a t = {
  mutable data : 'a array; (* filled with the first push; [||] before *)
  capacity : int;
  mutable pushed : int; (* total pushes ever *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity";
  { data = [||]; capacity; pushed = 0 }

let capacity t = t.capacity

let push t v =
  if Array.length t.data = 0 then t.data <- Array.make t.capacity v;
  t.data.(t.pushed mod t.capacity) <- v;
  t.pushed <- t.pushed + 1

let length t = min t.pushed t.capacity
let dropped t = max 0 (t.pushed - t.capacity)

(* Oldest-first. *)
let to_list t =
  let n = length t in
  let first = t.pushed - n in
  List.init n (fun i -> t.data.((first + i) mod t.capacity))

let iter t f = List.iter f (to_list t)

let clear t =
  t.data <- [||];
  t.pushed <- 0
