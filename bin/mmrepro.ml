(* mmrepro — command-line driver for the CortenMM reproduction.

   Subcommands:
     list            show every reproducible table/figure
     run [IDS...]    run experiments (all when none given)
     verify          run the full verification suite (protocol model
                     checking, refinement, exhaustive functional
                     correctness, linearizability)
     sweep           one microbenchmark over a core sweep (quick look)
     trace           generate / replay MM operation traces
     oracle          differential cross-backend oracle on one trace *)

open Cmdliner

(* Shared observability options: record a deterministic event trace
   (Chrome trace_event JSON, Perfetto-loadable) and/or print the
   lock-contention report after the run. *)

let obs_trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a deterministic event trace of the run and write it as \
           Chrome trace_event JSON (load in ui.perfetto.dev or \
           chrome://tracing).")

let obs_report =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:
          "After the run, print the lock-contention report (locks ranked by \
           serialized cycles) and the metrics registry.")

(* -j/--jobs for the drivers whose work decomposes into independent
   worlds (oracle, serve, schedcheck). Validation goes through the typed
   [Par.jobs_of_string], so `-j 0` or `-j x` fail fast with the same
   wording everywhere; outputs are byte-identical for any accepted
   value. *)
let jobs_arg =
  let jobs_conv =
    Arg.conv
      ( (fun s ->
          Result.map_error (fun m -> `Msg m) (Mm_par.Par.jobs_of_string s)),
        Format.pp_print_int )
  in
  Arg.(
    value & opt jobs_conv 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains to shard independent simulation worlds across \
           (default 1). Results are byte-identical for any value; only \
           wall-clock time changes.")

(* --mutant NAME for the two checkers (oracle, schedcheck): arm one
   seeded bug from the {!Mm_sim.Mutant} registry, which the checker must
   then catch. Unknown names fail with the valid-name listing. *)
let mutant_arg =
  let module Mutant = Mm_sim.Mutant in
  let mutant_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun m -> `Msg m) (Mutant.of_string s)),
        fun ppf m -> Format.pp_print_string ppf (Mutant.name m) )
  in
  Arg.(
    value
    & opt (some mutant_conv) None
    & info [ "mutant" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Arm a seeded bug the checker must catch: %s (default: none)."
             (String.concat ", " (List.map Mutant.name Mutant.all))))

let with_obs ~trace ~report f =
  if trace <> None || report then Mm_obs.Trace.start ();
  f ();
  (match trace with
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
  if trace <> None || report then ignore (Mm_obs.Trace.stop ())

let list_cmd =
  let doc = "List the reproducible tables and figures." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-8s %s\n" e.Mm_experiments.Registry.id
          e.Mm_experiments.Registry.title)
      Mm_experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run experiments by id (all when none given)." in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  let run ids trace report =
    with_obs ~trace ~report (fun () ->
        match ids with
        | [] -> Mm_experiments.Driver.run_all ()
        | ids ->
          (* Resolve every id before running anything, then reuse the
             driver's header/capture path (one owner of the
             `=== id: title ===` format). *)
          let entries =
            List.map
              (fun id ->
                match Mm_experiments.Registry.find id with
                | Ok e -> e
                | Error msg ->
                  Printf.eprintf "mmrepro: %s\n" msg;
                  exit 1)
              ids
          in
          ignore
            (Mm_experiments.Driver.run_entries
               ~emit:Mm_experiments.Driver.emit_stdout ~jobs:1 entries))
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ ids $ obs_trace $ obs_report)

let verify_cmd =
  let doc =
    "Run the verification suite: exhaustive model checking of both locking \
     protocols (P1), refinement to the Atomic Spec, exhaustive functional \
     correctness of the cursor operations (P2), and linearizability of \
     concurrent histories."
  in
  let run () =
    let tree = Mm_verif.Tree.create ~arity:2 ~depth:3 in
    let ok = ref true in
    let report name r =
      Printf.printf "  %-42s %s\n%!" name (Mm_verif.Checker.describe r);
      if not (Mm_verif.Checker.is_verified r) then ok := false
    in
    Printf.printf "P1: CortenMM_rw locking protocol\n";
    List.iter
      (fun (name, targets) ->
        report name (Mm_verif.Rw_model.check ~tree ~targets ()))
      [
        ("overlapping targets (1,3)", [| 1; 3 |]);
        ("same target (4,4)", [| 4; 4 |]);
        ("disjoint subtrees (1,2)", [| 1; 2 |]);
        ("root vs leaf (0,6)", [| 0; 6 |]);
        ("three cores (1,4,2)", [| 1; 4; 2 |]);
      ];
    Printf.printf "P1: CortenMM_rw, faithful Fig 5 variant (trade window)\n";
    List.iter
      (fun (name, targets) ->
        report name
          (Mm_verif.Rw_model.check ~trade_window:true ~stepwise_unlock:true
             ~tree ~targets ()))
      [
        ("overlapping targets (1,3)", [| 1; 3 |]);
        ("same target (4,4)", [| 4; 4 |]);
        ("three cores (1,4,2)", [| 1; 4; 2 |]);
      ];
    Printf.printf "P1: refinement Atomic Tree Spec -> Atomic Spec\n";
    List.iter
      (fun targets ->
        let r, errs = Mm_verif.Rw_model.check_refinement ~tree ~targets () in
        Printf.printf "  targets %s: %s, %d refinement errors\n%!"
          (String.concat ","
             (Array.to_list (Array.map string_of_int targets)))
          (Mm_verif.Checker.describe r) (List.length errs);
        if (not (Mm_verif.Checker.is_verified r)) || errs <> [] then ok := false)
      [ [| 1; 3 |]; [| 1; 2 |]; [| 0; 6 |] ];
    Printf.printf "P1: CortenMM_adv locking protocol (with RCU + stale)\n";
    List.iter
      (fun (name, targets, actions) ->
        report name (Mm_verif.Adv_model.check ~tree ~targets ~actions ()))
      [
        ("disjoint ops", [| 1; 2 |], [| Mm_verif.Adv_model.Op; Mm_verif.Adv_model.Op |]);
        ("overlapping ops", [| 1; 3 |], [| Mm_verif.Adv_model.Op; Mm_verif.Adv_model.Op |]);
        ( "Fig 7 unmap race",
          [| 1; 3 |],
          [| Mm_verif.Adv_model.Remove 3; Mm_verif.Adv_model.Op |] );
        ( "double remove",
          [| 1; 2 |],
          [| Mm_verif.Adv_model.Remove 3; Mm_verif.Adv_model.Remove 5 |] );
        ( "3 cores, remove + two lockers",
          [| 1; 3; 2 |],
          [| Mm_verif.Adv_model.Remove 3; Mm_verif.Adv_model.Op;
             Mm_verif.Adv_model.Op |] );
      ];
    Printf.printf "Seeded bugs (the checker must catch these)\n";
    let expect_violation name r =
      match r.Mm_verif.Checker.outcome with
      | Mm_verif.Checker.Invariant_violation { message; _ } ->
        Printf.printf "  %-42s caught: %s\n%!" name message
      | _ ->
        Printf.printf "  %-42s NOT CAUGHT\n%!" name;
        ok := false
    in
    expect_violation "rw without path read locks"
      (Mm_verif.Rw_model.check ~skip_read_locks:true ~tree ~targets:[| 1; 3 |] ());
    expect_violation "adv without the stale check"
      (Mm_verif.Adv_model.check ~no_stale_check:true ~tree ~targets:[| 1; 3 |]
         ~actions:[| Mm_verif.Adv_model.Remove 3; Mm_verif.Adv_model.Op |] ());
    expect_violation "adv without RCU grace periods"
      (Mm_verif.Adv_model.check ~no_rcu:true ~tree ~targets:[| 1; 3 |]
         ~actions:[| Mm_verif.Adv_model.Remove 3; Mm_verif.Adv_model.Op |] ());
    Printf.printf "P2: functional correctness of the cursor operations\n";
    List.iter
      (fun (name, cfg) ->
        let r = Mm_verif.Funcheck.exhaustive ~cfg ~depth:2 () in
        Printf.printf
          "  %-42s %d sequences, %d checks, %d failures\n%!" name
          r.Mm_verif.Funcheck.sequences r.Mm_verif.Funcheck.checks
          (List.length r.Mm_verif.Funcheck.failures);
        if r.Mm_verif.Funcheck.failures <> [] then ok := false)
      [ ("adv, all depth-2 sequences", Cortenmm.Config.adv);
        ("rw, all depth-2 sequences", Cortenmm.Config.rw) ];
    Printf.printf "Atomicity: linearizability of concurrent histories\n";
    List.iter
      (fun seed ->
        let r =
          Mm_verif.Funcheck.lin_check ~cfg:Cortenmm.Config.adv ~ncpus:4
            ~ops_per_thread:15 ~seed
        in
        Printf.printf "  seed %-4d %d ops: %s\n%!" seed
          r.Mm_verif.Funcheck.total_ops
          (if r.Mm_verif.Funcheck.matched then "linearizes" else "MISMATCH");
        if not r.Mm_verif.Funcheck.matched then ok := false)
      [ 1; 42; 1234 ];
    if !ok then Printf.printf "\nAll verification checks passed.\n"
    else begin
      Printf.printf "\nVERIFICATION FAILURES PRESENT.\n";
      exit 1
    end
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ const ())

(* --systems NAME,NAME...: subset of the registered systems, resolved
   through the result-returning registry lookup so a typo prints the
   valid-name listing and exits. *)
let systems_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "systems" ] ~docv:"NAMES"
        ~doc:"Comma-separated subset of the registered systems to include \
              (default: all).")

let resolve_systems = function
  | None -> Mm_workloads.System.Registry.all
  | Some s ->
    List.map
      (fun name ->
        match Mm_workloads.System.Registry.find name with
        | Ok e -> e
        | Error msg ->
          Printf.eprintf "mmrepro: %s\n" msg;
          exit 1)
      (String.split_on_char ',' s)

let sweep_cmd =
  let doc = "Run one microbenchmark over a core sweep." in
  let bench =
    let bench_conv =
      Arg.enum
        (List.map
           (fun b -> (Mm_workloads.Micro.bench_name b, b))
           Mm_workloads.Micro.all_benches)
    in
    Arg.(
      value
      & opt bench_conv Mm_workloads.Micro.Pf
      & info [ "bench" ] ~doc:"Benchmark.")
  in
  let high =
    Arg.(value & flag & info [ "high" ] ~doc:"High-contention variant.")
  in
  let cores =
    Arg.(
      value
      & opt (list ~sep:',' int) [ 1; 2; 4; 8; 16; 32; 64 ]
      & info [ "cores" ] ~docv:"LIST"
          ~doc:"Comma-separated simulated core counts to sweep.")
  in
  let run bench high cores systems trace report =
    with_obs ~trace ~report @@ fun () ->
    let contention =
      if high then Mm_workloads.Micro.High else Mm_workloads.Micro.Low
    in
    let systems =
      List.map
        (fun e -> e.Mm_workloads.System.Registry.r_kind)
        (resolve_systems systems)
    in
    let header =
      "cores" :: List.map Mm_workloads.System.kind_name systems
    in
    let rows =
      List.map
        (fun ncpus ->
          string_of_int ncpus
          :: List.map
               (fun kind ->
                 match
                   Mm_workloads.Micro.run ~kind ~ncpus ~bench ~contention
                     ~iters:50 ()
                 with
                 | Some r ->
                   Mm_util.Tablefmt.fmt_si r.Mm_workloads.Runner.ops_per_sec
                 | None -> "n/a")
               systems)
        cores
    in
    Mm_util.Tablefmt.print ~header rows
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ bench $ high $ cores $ systems_arg $ obs_trace $ obs_report)

let trace_cmd =
  let doc =
    "Generate a synthetic MM operation trace, or replay one on any of the \
     evaluated systems."
  in
  let mode =
    Arg.(
      required
      & pos 0 (some (enum [ ("gen", `Gen); ("replay", `Replay) ])) None
      & info [] ~docv:"gen|replay")
  in
  let path =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE")
  in
  let profile =
    Arg.(
      value
      & opt
          (enum
             [
               ("churn", Mm_workloads.Trace.Churn);
               ("faults", Mm_workloads.Trace.Faults);
               ("mixed", Mm_workloads.Trace.Mixed);
               ("forks", Mm_workloads.Trace.Forks);
               ("reclaim", Mm_workloads.Trace.Reclaim);
             ])
          Mm_workloads.Trace.Mixed
      & info [ "profile" ] ~doc:"Workload profile for gen.")
  in
  let ncpus =
    Arg.(value & opt int 4 & info [ "cpus" ] ~doc:"Virtual CPUs.")
  in
  let ops = Arg.(value & opt int 200 & info [ "ops" ] ~doc:"Ops per CPU.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let system =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun e ->
                  ( e.Mm_workloads.System.Registry.r_name,
                    e.Mm_workloads.System.Registry.r_kind ))
                Mm_workloads.System.Registry.all))
          (Mm_workloads.System.Corten Cortenmm.Config.adv)
      & info [ "system" ] ~doc:"System to replay on.")
  in
  let run mode path profile ncpus ops seed system =
    match mode with
    | `Gen ->
      let t = Mm_workloads.Trace.generate ~profile ~ncpus ~ops_per_cpu:ops ~seed in
      Mm_workloads.Trace.save t path;
      Printf.printf "wrote %d operations (%d cpus, profile %s) to %s\n"
        (Array.length t.Mm_workloads.Trace.entries)
        t.Mm_workloads.Trace.ncpus
        (Mm_workloads.Trace.profile_name profile)
        path
    | `Replay ->
      let t = Mm_workloads.Trace.load path in
      let s = Mm_workloads.Trace.replay ~kind:system t in
      Printf.printf
        "replayed %d ops on %s (%d cpus): %s ops/s\n\
         mmaps %d, munmaps %d, touches %d, forks %d, denied %d\n"
        s.Mm_workloads.Trace.result.Mm_workloads.Runner.ops
        (Mm_workloads.System.kind_name system)
        t.Mm_workloads.Trace.ncpus
        (Mm_util.Tablefmt.fmt_si
           s.Mm_workloads.Trace.result.Mm_workloads.Runner.ops_per_sec)
        s.Mm_workloads.Trace.mmaps s.Mm_workloads.Trace.munmaps
        s.Mm_workloads.Trace.touches s.Mm_workloads.Trace.forks
        s.Mm_workloads.Trace.faults_denied
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ mode $ path $ profile $ ncpus $ ops $ seed $ system)

let oracle_cmd =
  let doc =
    "Replay one trace on every registered backend and compare the observable \
     state (per-page mappings, error outcomes, memory statistics). Exits \
     non-zero on the first divergence, with the offending operation index."
  in
  let path =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Saved trace to check; generated from the profile flags when \
                omitted.")
  in
  let profile =
    Arg.(
      value
      & opt
          (enum
             [
               ("churn", Mm_workloads.Trace.Churn);
               ("faults", Mm_workloads.Trace.Faults);
               ("mixed", Mm_workloads.Trace.Mixed);
               ("forks", Mm_workloads.Trace.Forks);
               ("reclaim", Mm_workloads.Trace.Reclaim);
             ])
          Mm_workloads.Trace.Mixed
      & info [ "profile" ] ~doc:"Workload profile when generating.")
  in
  let ncpus =
    Arg.(value & opt int 4 & info [ "cpus" ] ~doc:"Virtual CPUs.")
  in
  let ops = Arg.(value & opt int 200 & info [ "ops" ] ~doc:"Ops per CPU.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let every =
    (* Diff.run rejects a cadence below 1: fail here, with a usage
       message, rather than with its Invalid_argument. *)
    let positive =
      Arg.conv
        ( (fun s ->
            match int_of_string_opt (String.trim s) with
            | Some n when n > 0 -> Ok n
            | Some _ | None ->
              Error
                (`Msg
                   (Printf.sprintf
                      "invalid cadence %S (expected a positive integer)" s))),
          Format.pp_print_int )
    in
    Arg.(
      value & opt positive 16
      & info [ "every" ] ~doc:"Snapshot-compare cadence in operations.")
  in
  let run path profile ncpus ops seed every mutant jobs systems =
    let trace =
      match path with
      | Some p -> Mm_workloads.Trace.load p
      | None ->
        Mm_workloads.Trace.generate ~profile ~ncpus ~ops_per_cpu:ops ~seed
    in
    let entries = resolve_systems systems in
    let backends =
      List.map (fun e -> e.Mm_workloads.System.Registry.r_backend) entries
    in
    match
      Mm_workloads.Diff.run ~check_every:every ~jobs ?mutant ~backends trace
    with
    | Ok n ->
      Printf.printf "oracle: %d ops, %d backends, no divergence\n" n
        (List.length entries)
    | Error d ->
      Printf.printf "oracle: DIVERGENCE\n%s\n" (Mm_workloads.Diff.describe d);
      exit 1
  in
  Cmd.v (Cmd.info "oracle" ~doc)
    Term.(
      const run $ path $ profile $ ncpus $ ops $ seed $ every $ mutant_arg
      $ jobs_arg $ systems_arg)

let serve_cmd =
  let doc =
    "Open-loop serving mode: drive a fleet of short sessions \
     (mmap/fault/mprotect/munmap bursts on a seeded Poisson-style arrival \
     schedule) against the registered systems and report SLO-style \
     latency percentiles (p50/p99/p999) per system and TLB-shootdown \
     policy, plus the shootdown accounting (IPIs, batch flushes, worst \
     deferral stall). Deterministic: equal seeds give byte-identical \
     reports."
  in
  let sessions =
    Arg.(
      value & opt int 100_000
      & info [ "sessions" ] ~doc:"Total sessions across all CPUs.")
  in
  let ncpus =
    Arg.(value & opt int 8 & info [ "cpus" ] ~doc:"Virtual CPUs.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let mix =
    Arg.(
      value & opt string "mixed"
      & info [ "mix" ]
          ~doc:
            (Printf.sprintf "Session mix: %s."
               (String.concat ", " Mm_serve.Mix.names)))
  in
  let policies_flag =
    Arg.(
      value & opt string "immediate,batched"
      & info [ "policies" ]
          ~doc:
            (Printf.sprintf
               "Comma-separated TLB shootdown policies to compare: %s."
               (String.concat ", " Mm_serve.Serve.policy_names)))
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable report here (BENCH_serve.json).")
  in
  let run sessions ncpus seed mix policies json jobs systems =
    let die msg =
      Printf.eprintf "mmrepro: %s\n" msg;
      exit 1
    in
    let mix =
      match Mm_serve.Mix.find mix with Ok m -> m | Error msg -> die msg
    in
    let policies =
      List.map
        (fun name ->
          match Mm_serve.Serve.find_policy name with
          | Ok p -> (name, p)
          | Error msg -> die msg)
        (String.split_on_char ',' policies)
    in
    let systems = resolve_systems systems in
    let reports =
      Mm_serve.Serve.run_matrix ~jobs ~systems ~mix ~policies ~ncpus
        ~sessions ~seed ()
    in
    Printf.printf
      "serve: %d sessions, %d cpus, mix %s, seed %d (latencies in cycles)\n\n"
      sessions ncpus mix.Mm_serve.Mix.name seed;
    print_string (Mm_serve.Serve.table reports);
    match json with
    | None -> ()
    | Some path ->
      Mm_serve.Serve.write_json ~path ~mix ~ncpus ~sessions ~seed reports;
      Printf.printf "\nwrote serve report to %s\n" path
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ sessions $ ncpus $ seed $ mix $ policies_flag $ json
      $ jobs_arg $ systems_arg)

let schedcheck_cmd =
  let doc =
    "Explore schedules of the concurrent core: run small concurrent cursor \
     workloads under seeded-random tie-break policies, checking protocol \
     invariants live (mutual exclusion, transaction exclusivity, RCU grace \
     periods, deadlock-freedom) and the final address-space state against a \
     sequential reference replay. On violation, shrinks the schedule and \
     writes a minimal deterministic replay file. Exits non-zero on \
     violation."
  in
  let protocol =
    Arg.(
      value
      & opt (enum [ ("adv", `Adv); ("rw", `Rw); ("both", `Both) ]) `Both
      & info [ "protocol" ] ~doc:"Locking protocol to check: adv, rw, both.")
  in
  let cpus =
    Arg.(value & opt int 4 & info [ "cpus" ] ~doc:"Virtual CPUs.")
  in
  let ops = Arg.(value & opt int 12 & info [ "ops" ] ~doc:"Ops per CPU.") in
  let seeds =
    Arg.(
      value & opt int 25
      & info [ "seeds" ] ~doc:"Schedule seeds to try per protocol.")
  in
  let seed0 =
    Arg.(value & opt int 1 & info [ "seed0" ] ~doc:"First schedule seed.")
  in
  let wseed =
    Arg.(value & opt int 42 & info [ "workload-seed" ] ~doc:"Workload seed.")
  in
  let amplitude =
    Arg.(
      value & opt int 8
      & info [ "amplitude" ] ~doc:"Tie-break key range (permutation width).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the minimized schedule of a violation here.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a saved schedule file instead of exploring (all other \
             workload flags are taken from the file).")
  in
  let run protocol cpus ops seeds seed0 wseed amplitude mutant out replay jobs
      =
    let module S = Mm_schedcheck.Schedcheck in
    let module Sched_file = Mm_schedcheck.Schedule in
    let die msg =
      Printf.eprintf "mmrepro: %s\n" msg;
      exit 2
    in
    match replay with
    | Some path -> (
      let s =
        match Sched_file.load path with Ok s -> s | Error msg -> die msg
      in
      match S.replay_schedule s with
      | Error msg -> die msg
      | Ok [] ->
        Printf.printf
          "schedcheck: replay %s (%s, %d cpus, %d ops/cpu, mutant %s): clean\n"
          path s.Sched_file.protocol s.Sched_file.cpus s.Sched_file.ops
          s.Sched_file.mutant
      | Ok violations ->
        Printf.printf
          "schedcheck: replay %s (%s, %d cpus, %d ops/cpu, mutant %s): %d \
           violation(s)\n"
          path s.Sched_file.protocol s.Sched_file.cpus s.Sched_file.ops
          s.Sched_file.mutant (List.length violations);
        List.iter (fun v -> Printf.printf "  %s\n" v) violations;
        exit 1)
    | None ->
      let protocols =
        match protocol with
        | `Adv -> [ Cortenmm.Config.adv ]
        | `Rw -> [ Cortenmm.Config.rw ]
        | `Both -> [ Cortenmm.Config.rw; Cortenmm.Config.adv ]
      in
      let violated = ref false in
      List.iter
        (fun protocol ->
          let cfg =
            {
              S.protocol;
              cpus;
              ops_per_cpu = ops;
              workload_seed = wseed;
              mutant;
            }
          in
          match S.explore ~amplitude ~seed0 ~jobs ~seeds cfg with
          | S.Clean { seeds } ->
            Printf.printf
              "schedcheck: %s: %d seeds clean (%d cpus, %d ops/cpu, mutant \
               %s)\n"
              (Cortenmm.Config.name protocol)
              seeds cpus ops
              (Option.fold ~none:"none" ~some:Mm_sim.Mutant.name mutant)
          | S.Violation { sched_seed; keys; violations; shrink_runs } ->
            violated := true;
            Printf.printf
              "schedcheck: %s: VIOLATION at seed %d (shrunk to %d keys in \
               %d replays)\n"
              (Cortenmm.Config.name protocol)
              sched_seed (Array.length keys) shrink_runs;
            List.iter (fun v -> Printf.printf "  %s\n" v) violations;
            match out with
            | None -> ()
            | Some path ->
              Sched_file.save (S.schedule_of cfg keys) path;
              Printf.printf "  minimal schedule written to %s\n" path)
        protocols;
      if !violated then exit 1
  in
  Cmd.v (Cmd.info "schedcheck" ~doc)
    Term.(
      const run $ protocol $ cpus $ ops $ seeds $ seed0 $ wseed $ amplitude
      $ mutant_arg $ out $ replay $ jobs_arg)

let () =
  let doc = "CortenMM reproduction driver" in
  let info = Cmd.info "mmrepro" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; verify_cmd; sweep_cmd; trace_cmd; oracle_cmd;
            serve_cmd; schedcheck_cmd;
          ]))
