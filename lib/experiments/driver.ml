(* The domain-parallel experiment driver (bench's engine room).

   Parallelizing *around* the entries (one pool task per registry
   entry) leaves the critical path at the slowest single entry — fig14
   alone is ~78% of the whole suite. This driver parallelizes *inside*
   them: every cell of every selected entry ({!Plan}) becomes its own
   pool task, flattened across entries into ONE [Par] pool, with a
   weight-ordered scheduling hint so the heavy 64-core cells start
   first.

   Determinism argument, in three parts:
   - Each cell task starts with [Runner.reset_world_state], runs its one
     world on whatever domain claimed it, and returns its value and
     collected [Runner.result]s — a pure function of the cell.
   - The pool merges (and streams) task results strictly in submission
     order, whatever the claim order was.
   - Rendering happens on the *calling* domain, per entry, in submission
     order, with the cells' values handed to the render in declaration
     order — so the printed stream, the collected results feeding
     [bench --json], and the per-entry aggregates are byte-identical to
     a sequential run for any job count. *)

module Runner = Mm_workloads.Runner
module Out = Mm_util.Out
module Par = Mm_par.Par

type cell_time = {
  ct_label : string;
  ct_seconds : float; (* wall-clock of this cell on its worker domain *)
  ct_major_mb : float; (* major-heap MB it allocated on that domain *)
}

type task_result = {
  t_id : string;
  t_title : string;
  t_output : string; (* captured stdout: header, experiment, blank line *)
  t_results : (string * Runner.result) list; (* labeled (bench --json) *)
  t_seconds : float; (* sum of the entry's cell seconds *)
  t_cells : cell_time list; (* per-cell wall-clock, declaration order *)
}

(* The simulator's state is mostly medium-lived (one world per
   experiment config), which the default GC pacing promotes and then
   re-marks aggressively. A larger minor heap and lazier major slices
   cut total GC work by roughly a fifth of the run time; simulated
   outputs are unaffected (the simulation is deterministic and the GC
   never observes virtual time). Applied to every worker domain; bench
   applies it to the main domain at startup. *)
let gc_pacing () =
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 20; space_overhead = 300 }

(* What one cell task hands back through the pool: whatever the cell
   printed (cells are expected to be print-free; anything they do print
   is hoisted to just after the entry header, identically at every job
   count) and its collected results. The cell's typed value travels
   separately, in its entry's [values] slot (see [prepare]). *)
type piece = {
  output : string;
  results : (string * Runner.result) list;
}

(* One selected entry, resolved: its flattened pool tasks plus what the
   calling domain needs to reassemble it. The plan's value type is
   hidden inside [p_render]. *)
type prepared = {
  p_entry : Registry.entry;
  p_labels : string list; (* cell labels, declaration order *)
  p_tasks : (float * (unit -> piece)) list; (* (weight, task) *)
  p_render : unit -> unit;
}

let prepare ~collect (e : Registry.entry) =
  let (Plan.Pack plan) = e.Registry.plan in
  let cells = Array.of_list plan.Plan.cells in
  let n = Array.length cells in
  (* Cell [i]'s task stores its value here before handing its piece to
     the pool; the pool's merge orders that store before the render
     below reads it on the calling domain. *)
  let values = Array.make n None in
  let run_cell i (c : _ Plan.cell) () =
    (* Collect the previous cell's dead world before building this one:
       under the lazy pacing above, a 2 GB world left unswept beside a
       4 GB one is what pushed a sequential fig14 past 8 GB. *)
    Gc.full_major ();
    Runner.reset_world_state ();
    if collect then Runner.start_collecting ();
    Runner.set_label e.id;
    let results, output =
      Out.capture (fun () ->
          values.(i) <- Some (c.Plan.c_run ());
          if collect then Runner.stop_collecting () else [])
    in
    { output; results }
  in
  (* [take] hands the values out in declaration order; a render that
     takes more or fewer values than there are cells fails the entry. *)
  let render () =
    let next = ref 0 in
    let take () =
      if !next >= n then
        invalid_arg
          (Printf.sprintf "%s: render took more values than its %d cells" e.id
             n);
      let v = Option.get values.(!next) in
      incr next;
      v
    in
    plan.Plan.render take;
    if !next < n then
      invalid_arg
        (Printf.sprintf "%s: render took %d of its %d cell values" e.id !next
           n)
  in
  {
    p_entry = e;
    p_labels = Array.to_list (Array.map (fun c -> c.Plan.c_label) cells);
    p_tasks =
      List.mapi (fun i (c : _ Plan.cell) -> (c.Plan.c_weight, run_cell i c))
        plan.Plan.cells;
    p_render = render;
  }

(* Reassemble an entry from its pieces (in declaration order): replay
   the header, any stray cell output, and the plan's render under
   [Out.capture] on the calling domain. *)
let assemble (p : prepared) (pieces : piece Par.timed list) =
  let e = p.p_entry in
  let (), output =
    Out.capture (fun () ->
        Out.printf "=== %s: %s ===\n\n" e.id e.title;
        List.iter (fun t -> Out.print_string t.Par.value.output) pieces;
        p.p_render ();
        Out.print_newline ())
  in
  {
    t_id = e.id;
    t_title = e.title;
    t_output = output;
    t_results = List.concat_map (fun t -> t.Par.value.results) pieces;
    t_seconds = List.fold_left (fun a t -> a +. t.Par.seconds) 0.0 pieces;
    t_cells =
      List.map2
        (fun ct_label t ->
          {
            ct_label;
            ct_seconds = t.Par.seconds;
            ct_major_mb =
              t.Par.major_words *. float (Sys.word_size / 8) /. 1048576.;
          })
        p.p_labels pieces;
  }

(* Heaviest-first claim order over the flattened tasks (stable: equal
   weights keep submission order). Purely a wall-clock hint — the pool
   merges in submission order regardless. *)
let weight_order weights =
  let a = Array.of_list (List.mapi (fun i w -> (i, w)) weights) in
  Array.sort
    (fun (i, wa) (j, wb) ->
      match compare wb wa with 0 -> compare i j | c -> c)
    a;
  Array.map fst a

let run_entries ?emit ?(collect = false) ~jobs entries =
  let prepared = List.map (prepare ~collect) entries in
  let flat = List.concat_map (fun p -> p.p_tasks) prepared in
  let order = weight_order (List.map fst flat) in
  (* Stream: pieces arrive in submission order; cut them back into
     per-entry groups, render each completed entry on this (calling)
     domain, and hand it to [emit] — entries complete in submission
     order, so stdout stays byte-identical to sequential. *)
  let pending = Queue.create () in
  List.iter (fun p -> Queue.add (p, List.length p.p_tasks) pending) prepared;
  let buf = ref [] and out = ref [] in
  let finish p pieces =
    let task = assemble p pieces in
    out := task :: !out;
    Option.iter (fun f -> f task) emit
  in
  (* An entry with no cells has no pieces to wait for: assemble it the
     moment it reaches the head of the queue. *)
  let rec drain_empty () =
    match Queue.peek_opt pending with
    | Some (p, 0) ->
      ignore (Queue.pop pending);
      finish p [];
      drain_empty ()
    | _ -> ()
  in
  drain_empty ();
  let on_piece (t : piece Par.timed) =
    buf := t :: !buf;
    let p, want = Queue.peek pending in
    if List.length !buf = want then begin
      ignore (Queue.pop pending);
      finish p (List.rev !buf);
      buf := [];
      drain_empty ()
    end
  in
  ignore
    (Par.run_timed ~emit:on_piece ~worker_init:gc_pacing ~order ~jobs
       (List.map snd flat));
  List.rev !out

(* Print a completed entry's stream — the shared [emit] of bench and
   mmrepro. *)
let emit_stdout (t : task_result) =
  print_string t.t_output;
  flush stdout

(* The sequential run-everything path (mmrepro `run` with no ids); the
   single place that owns the `=== id: title ===` header via
   [run_entries]. *)
let run_all () = ignore (run_entries ~emit:emit_stdout ~jobs:1 Registry.all)
