(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (run with no arguments for everything, or
   `-- --only fig13,fig20` for a subset; `--list` shows the ids), then —
   unless `--no-bechamel` — runs a small Bechamel suite timing the host
   performance of the substrate itself (page-table ops, PTE codecs,
   allocators, the model checker), which is this repository's equivalent
   of reporting the simulator's own speed. *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let isa = Mm_hal.Isa.x86_64 in
  let pte_roundtrip =
    Test.make ~name:"hal: x86-64 PTE encode+decode"
      (Staged.stage (fun () ->
           let pte = Mm_hal.Pte.leaf ~pfn:0x1234 ~perm:Mm_hal.Perm.rw () in
           ignore
             (Mm_hal.Isa.decode isa ~level:1
                (Mm_hal.Isa.encode isa ~level:1 pte))))
  in
  let buddy_cycle =
    Test.make ~name:"phys: buddy alloc+free"
      (Staged.stage
         (let b = Mm_phys.Buddy.create ~nframes:(1 lsl 24) in
          fun () ->
            let pfn = Mm_phys.Buddy.alloc b ~order:0 in
            Mm_phys.Buddy.free b ~pfn ~order:0))
  in
  let pt_map_unmap =
    Test.make ~name:"pt: walk_create+set+clear"
      (Staged.stage
         (let phys = Mm_phys.Phys.create () in
          let pt = Mm_pt.Pt.create phys isa in
          let vaddr = ref 0x1000_0000 in
          fun () ->
            let node = Mm_pt.Pt.walk_create pt ~to_level:1 !vaddr in
            let idx = Mm_pt.Pt.index pt ~level:1 ~vaddr:!vaddr in
            Mm_pt.Pt.set pt node idx
              (Mm_hal.Pte.leaf ~pfn:1 ~perm:Mm_hal.Perm.rw ());
            Mm_pt.Pt.set pt node idx Mm_hal.Pte.Absent;
            vaddr := !vaddr + 4096))
  in
  let vma_find =
    Test.make ~name:"linux: vma tree find"
      (Staged.stage
         (let phys = Mm_phys.Phys.create () in
          let t = Mm_linux.Vma.create phys in
          for i = 0 to 99 do
            ignore
              (Mm_linux.Vma.insert t
                 ~start:(0x1000_0000 + (i * 0x10000))
                 ~end_:(0x1000_0000 + (i * 0x10000) + 0x8000)
                 ~perm:Mm_hal.Perm.rw)
          done;
          fun () -> ignore (Mm_linux.Vma.find t 0x1000_4000)))
  in
  let checker_run =
    Test.make ~name:"verif: rw model check (2 cores)"
      (Staged.stage (fun () ->
           let tree = Mm_verif.Tree.create ~arity:2 ~depth:3 in
           ignore (Mm_verif.Rw_model.check ~tree ~targets:[| 1; 3 |] ())))
  in
  let sim_microop =
    Test.make ~name:"sim: one simulated mmap+touch+munmap"
      (Staged.stage (fun () ->
           let w = Mm_sim.Engine.create ~ncpus:1 in
           Mm_sim.Engine.spawn w ~cpu:0 (fun () ->
               let kernel = Cortenmm.Kernel.create ~ncpus:1 () in
               let asp =
                 Cortenmm.Addr_space.create kernel Cortenmm.Config.adv
               in
               let a =
                 Mm_hal.Errno.ok_exn
                   (Cortenmm.Mm.mmap_r asp ~len:16384 ~perm:Mm_hal.Perm.rw ())
               in
               Cortenmm.Mm.touch_range asp ~addr:a ~len:16384 ~write:true;
               ignore (Cortenmm.Mm.munmap_r asp ~addr:a ~len:16384));
           Mm_sim.Engine.run w))
  in
  let maple_ops =
    Test.make ~name:"linux: maple tree insert+find+remove"
      (Staged.stage
         (let phys = Mm_phys.Phys.create () in
          let t = Mm_linux.Vma.create phys in
          let next = ref 0x1000_0000 in
          fun () ->
            let s = !next in
            next := s + 0x10000;
            let _ = Mm_linux.Vma.insert t ~start:s ~end_:(s + 0x8000)
                      ~perm:Mm_hal.Perm.rw in
            ignore (Mm_linux.Vma.find t (s + 0x4000));
            Mm_linux.Vma.remove_node t s))
  in
  let slab_cycle =
    Test.make ~name:"phys: slab alloc+free"
      (Staged.stage
         (let phys = Mm_phys.Phys.create () in
          let c = Mm_phys.Slab.create phys ~name:"bench" ~obj_size:200 in
          fun () ->
            let h = Mm_phys.Slab.alloc c in
            Mm_phys.Slab.free c h))
  in
  let tests =
    [
      pte_roundtrip; buddy_cycle; slab_cycle; pt_map_unmap; vma_find;
      maple_ops; checker_run; sim_microop;
    ]
  in
  Printf.printf "## Bechamel — host-level timings of the substrate\n\n%!";
  List.iter
    (fun test ->
      let instances = Instance.[ monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
      let raw = Benchmark.all cfg instances test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-45s %12.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-45s (no estimate)\n%!" name)
        results)
    tests;
  print_newline ()

(* --flag <value> style argument, hand-rolled like the rest of this
   driver's CLI. *)
let flag_value args name =
  let rec find = function
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find args

module Driver = Mm_experiments.Driver
module Par = Mm_par.Par

(* Wall-clock timing (--wallclock) is host-side only: it never touches
   the simulated (deterministic) outputs. Per-entry seconds come from
   the pool ({!Par.timed}); the totals compare the *elapsed* time of a
   sequential and a parallel pass over the same entries — the quantity
   [-j N] actually improves (per-entry times barely move: each entry is
   still one world on one domain). *)
let wallclock_path = "BENCH_wallclock.json"

(* The slowest single cell: the lower bound the parallel elapsed time
   converges to as -j grows (the suite's critical path now that the big
   entries are split into per-world cells). *)
let max_cell tasks =
  List.fold_left
    (fun acc (t : Driver.task_result) ->
      List.fold_left
        (fun acc (c : Driver.cell_time) ->
          if c.Driver.ct_seconds > snd acc then
            (t.Driver.t_id ^ "/" ^ c.Driver.ct_label, c.Driver.ct_seconds)
          else acc)
        acc t.Driver.t_cells)
    ("", 0.0) tasks

let write_wallclock_json ~path ~jobs ~elapsed_seq ~elapsed_par
    ~(seq : Driver.task_result list) ~(par : Driver.task_result list) =
  let open Mm_obs in
  (* Entries without cells (the source-derived tables) run no
     simulation: there is nothing to time. *)
  let timed = List.filter (fun (t : Driver.task_result) -> t.t_cells <> []) in
  let seq = timed seq and par = timed par in
  let speedup = if elapsed_par > 0. then elapsed_seq /. elapsed_par else 1.0 in
  let max_cell_label, max_cell_seq = max_cell seq in
  let _, max_cell_par = max_cell par in
  (* Whole-process high-water mark of the major heap, every pass and
     domain included. *)
  let peak_heap_mb =
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  Json.write_file ~path
    (Json.Obj
       [
         ("jobs", Json.Int jobs);
         ( "wallclock",
           Json.List
             (List.map2
                (fun (s : Driver.task_result) (p : Driver.task_result) ->
                  Json.Obj
                    [
                      ("id", Json.String s.Driver.t_id);
                      ("seconds_seq", Json.Float s.Driver.t_seconds);
                      ("seconds_par", Json.Float p.Driver.t_seconds);
                      ( "speedup",
                        Json.Float
                          (if p.Driver.t_seconds > 0. then
                             s.Driver.t_seconds /. p.Driver.t_seconds
                           else 1.0) );
                      ( "cells",
                        Json.List
                          (List.map2
                             (fun (cs : Driver.cell_time)
                                  (cp : Driver.cell_time) ->
                               Json.Obj
                                 [
                                   ("label", Json.String cs.Driver.ct_label);
                                   ( "seconds_seq",
                                     Json.Float cs.Driver.ct_seconds );
                                   ( "seconds_par",
                                     Json.Float cp.Driver.ct_seconds );
                                   ( "major_mb",
                                     Json.Float cs.Driver.ct_major_mb );
                                 ])
                             s.Driver.t_cells p.Driver.t_cells) );
                    ])
                seq par) );
         ("total_seconds_seq", Json.Float elapsed_seq);
         ("total_seconds_par", Json.Float elapsed_par);
         ("speedup", Json.Float speedup);
         (* Critical-path summary: elapsed time at -j N is bounded below
            by the slowest single cell. *)
         ("max_cell_label", Json.String max_cell_label);
         ("max_cell_seconds_seq", Json.Float max_cell_seq);
         ("max_cell_seconds_par", Json.Float max_cell_par);
         ("peak_heap_mb", Json.Float peak_heap_mb);
       ]);
  Printf.printf "## Wall-clock per experiment driver (-j %d)\n\n" jobs;
  Printf.printf "  %-10s %12s %12s %7s\n" "id" "seq (s)"
    (Printf.sprintf "-j%d (s)" jobs)
    "cells";
  List.iter2
    (fun (s : Driver.task_result) (p : Driver.task_result) ->
      Printf.printf "  %-10s %12.3f %12.3f %7d\n" s.Driver.t_id
        s.Driver.t_seconds p.Driver.t_seconds
        (List.length s.Driver.t_cells))
    seq par;
  Printf.printf "  %-10s %12.3f %12.3f  (elapsed; speedup %.2fx)\n" "total"
    elapsed_seq elapsed_par speedup;
  Printf.printf "  critical path: %.3fs in %s (max cell vs %.3fs total)\n"
    max_cell_seq max_cell_label elapsed_seq;
  Printf.printf "  peak heap: %.1f MB\n" peak_heap_mb;
  Printf.printf "wrote wall-clock timings to %s\n%!" path

let write_results_json ~path results =
  let open Mm_obs in
  Json.write_file ~path
    (Json.Obj
       [
         ( "results",
           Json.List
             (List.map
                (fun (label, (r : Mm_workloads.Runner.result)) ->
                  Json.Obj
                    [
                      ("id", Json.String label);
                      ("ops", Json.Int r.ops);
                      ("cycles", Json.Int r.cycles);
                      ("ops_per_sec", Json.Float r.ops_per_sec);
                    ])
                results) );
       ])

let () =
  (* The simulator's state is mostly medium-lived (one world per
     experiment config), which the default GC pacing promotes and then
     re-marks aggressively. A larger minor heap and lazier major slices
     cut total GC work by roughly a fifth of the run time; simulated
     outputs are unaffected (the simulation is deterministic and the GC
     never observes virtual time). *)
  Gc.set
    { (Gc.get ()) with minor_heap_size = 1 lsl 20; space_overhead = 300 };
  let args = Array.to_list Sys.argv in
  if List.mem "--list" args then begin
    List.iter
      (fun e ->
        Printf.printf "%-8s %s\n" e.Mm_experiments.Registry.id
          e.Mm_experiments.Registry.title)
      Mm_experiments.Registry.all;
    Printf.printf "backends: %s\n"
      (String.concat ", " Mm_workloads.System.Registry.names)
  end
  else begin
    let only =
      Option.map (String.split_on_char ',') (flag_value args "--only")
    in
    let json_path = flag_value args "--json" in
    let trace_path = flag_value args "--trace" in
    let report = List.mem "--report" args in
    (* -j/--jobs: worker-domain count for every parallel driver below.
       Typo'd values fail fast through the typed validation; outputs are
       byte-identical for any accepted value, so the flag only ever
       changes wall-clock time. *)
    let jobs =
      let parse s =
        match Par.jobs_of_string s with
        | Ok n -> n
        | Error msg ->
          Printf.eprintf "bench: %s\n" msg;
          exit 1
      in
      match (flag_value args "--jobs", flag_value args "-j") with
      | Some s, _ | None, Some s -> parse s
      | None, None -> 1
    in
    let jobs =
      if (trace_path <> None || report) && jobs > 1 then begin
        Printf.eprintf
          "bench: --trace/--report force -j 1 (one tracing session \
           accumulates across the whole run)\n\
           %!";
        1
      end
      else jobs
    in
    if trace_path <> None || report then Mm_obs.Trace.start ();
    let entries =
      match only with
      | None -> Mm_experiments.Registry.all
      | Some ids ->
        (* Resolve every id before running anything, so a typo fails
           fast instead of silently running a subset. *)
        List.map
          (fun id ->
            match Mm_experiments.Registry.find id with
            | Ok e -> e
            | Error msg ->
              Printf.eprintf "bench: %s\n" msg;
              exit 1)
          ids
    in
    let collect = json_path <> None in
    let t0 = Unix.gettimeofday () in
    let results =
      Driver.run_entries ~emit:Driver.emit_stdout ~collect ~jobs entries
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    (match trace_path with
    | Some path ->
      let events = Mm_obs.Trace.events () in
      Mm_obs.Chrome.write ~path events;
      Printf.printf "wrote %d trace events to %s (%d dropped)\n%!"
        (List.length events) path
        (Mm_obs.Trace.dropped ())
    | None -> ());
    if report then begin
      print_string (Mm_obs.Contention.report ());
      print_newline ();
      print_string (Mm_obs.Metrics.dump ())
    end;
    if trace_path <> None || report then ignore (Mm_obs.Trace.stop ());
    (match json_path with
    | Some path ->
      write_results_json ~path
        (List.concat_map (fun t -> t.Driver.t_results) results);
      Printf.printf "wrote results to %s\n%!" path
    | None -> ());
    if List.mem "--wallclock" args then begin
      (* Honest seq-vs-par numbers: at [-j 1] one pass is both; at
         [-j N] a second, output-suppressed sequential pass provides the
         reference timings — and doubles as a byte-identity gate over
         every entry's output and collected results. *)
      let path =
        Option.value (flag_value args "--wallclock-out")
          ~default:wallclock_path
      in
      let seq, elapsed_seq =
        if jobs = 1 then (results, elapsed)
        else begin
          let t0 = Unix.gettimeofday () in
          let seq = Driver.run_entries ~collect ~jobs:1 entries in
          let elapsed_seq = Unix.gettimeofday () -. t0 in
          List.iter2
            (fun (p : Driver.task_result) (s : Driver.task_result) ->
              if p.Driver.t_output <> s.Driver.t_output
                 || p.Driver.t_results <> s.Driver.t_results
              then begin
                Printf.eprintf
                  "bench: -j %d output for %s differs from the sequential \
                   reference — parallel merge bug\n"
                  jobs p.Driver.t_id;
                exit 1
              end)
            results seq;
          (seq, elapsed_seq)
        end
      in
      write_wallclock_json ~path ~jobs ~elapsed_seq ~elapsed_par:elapsed ~seq
        ~par:results
    end;
    if (not (List.mem "--no-bechamel" args)) && only = None then
      bechamel_suite ()
  end
