(* The differential cross-backend oracle: seeded traces must replay with
   zero divergences across all registered backends, and injected
   semantic mutations (a munmap that does nothing, an mprotect that lies,
   mem_stats that violate their invariants) must be caught with the
   offending op index. The table at the end names, for every seeded bug
   in {!Mm_sim.Mutant}, the checker that catches it. *)

module System = Mm_workloads.System
module Backend = Mm_workloads.Backend
module Trace = Mm_workloads.Trace
module Diff = Mm_workloads.Diff
module Errno = Mm_hal.Errno
module Mutant = Mm_sim.Mutant

let check = Alcotest.check

let assert_clean ~profile ~ncpus ~ops ~seed =
  let trace = Trace.generate ~profile ~ncpus ~ops_per_cpu:ops ~seed in
  match Diff.run trace with
  | Ok n ->
    check Alcotest.bool
      (Printf.sprintf "%s/%d checked some ops" (Trace.profile_name profile)
         seed)
      true (n > 0)
  | Error d ->
    Alcotest.failf "%s/%d diverged: %s" (Trace.profile_name profile) seed
      (Diff.describe d)

let test_churn_clean () = assert_clean ~profile:Trace.Churn ~ncpus:4 ~ops:120 ~seed:42
let test_faults_clean () = assert_clean ~profile:Trace.Faults ~ncpus:2 ~ops:150 ~seed:7
let test_mixed_clean () = assert_clean ~profile:Trace.Mixed ~ncpus:4 ~ops:120 ~seed:11
let test_forks_clean () = assert_clean ~profile:Trace.Forks ~ncpus:2 ~ops:100 ~seed:9

(* Fine-grained checking must agree with the default cadence. *)
let test_check_every_1_clean () =
  let trace = Trace.generate ~profile:Trace.Mixed ~ncpus:2 ~ops_per_cpu:60 ~seed:3 in
  match Diff.run ~check_every:1 trace with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "diverged: %s" (Diff.describe d)

(* -- Injected mutations -- *)

let linux = System.backend_of_kind System.Linux

(* A munmap that reports success without unmapping anything. *)
let broken_munmap (b : System.backend) : System.backend =
  let module B = (val b) in
  (module struct
    include B

    let name = B.name ^ "-broken-munmap"
    let munmap _ ~addr:_ ~len:_ = Ok ()
  end)

let test_broken_munmap_caught () =
  let trace = Trace.generate ~profile:Trace.Churn ~ncpus:2 ~ops_per_cpu:80 ~seed:42 in
  let first_munmap =
    let rec go i =
      if i >= Array.length trace.Trace.entries then
        Alcotest.fail "trace has no munmap"
      else
        match trace.Trace.entries.(i).Trace.op with
        | Trace.T_munmap _ -> i
        | _ -> go (i + 1)
    in
    go 0
  in
  match Diff.run ~check_every:1 ~backends:[ linux; broken_munmap linux ] trace with
  | Ok _ -> Alcotest.fail "broken munmap not caught"
  | Error d ->
    check Alcotest.int "attributed to the first munmap" first_munmap d.Diff.d_op;
    check Alcotest.string "solo invariant on the mutant"
      "linux-broken-munmap" d.Diff.d_backend_a

(* An mprotect that reports success but changes nothing: caught through
   the downstream observables (a write that should fault succeeding, or
   a page still writable in a snapshot). *)
let silent_mprotect (b : System.backend) : System.backend =
  let module B = (val b) in
  (module struct
    include B

    let name = B.name ^ "-silent-mprotect"
    let mprotect _ ~addr:_ ~len:_ ~perm:_ = Ok ()
  end)

let test_silent_mprotect_caught () =
  let e cpu op = { Trace.cpu; proc = 0; op } in
  let trace =
    {
      Trace.ncpus = 1;
      entries =
        [|
          e 0 (Trace.T_mmap { id = 1; len = 16384; writable = true });
          e 0 (Trace.T_touch { id = 1; page = 0; write = true });
          e 0 (Trace.T_mprotect { id = 1; writable = false });
          e 0 (Trace.T_touch { id = 1; page = 0; write = true });
          e 0 (Trace.T_munmap { id = 1 });
        |];
    }
  in
  match
    Diff.run ~check_every:1 ~backends:[ linux; silent_mprotect linux ] trace
  with
  | Ok _ -> Alcotest.fail "silent mprotect not caught"
  | Error d ->
    (* With per-op snapshots the lie surfaces at the mprotect itself:
       the page stays writable on the mutant. *)
    check Alcotest.int "attributed to the mprotect" 2 d.Diff.d_op

(* A touch that reports success without faulting the page in: only the
   snapshot's residency compare can see it. *)
let lazy_touch (b : System.backend) : System.backend =
  let module B = (val b) in
  (module struct
    include B

    let name = B.name ^ "-lazy-touch"
    let touch _ ~vaddr:_ ~write:_ = Ok ()
  end)

let test_lazy_touch_caught () =
  let e op = { Trace.cpu = 0; proc = 0; op } in
  let trace =
    {
      Trace.ncpus = 1;
      entries =
        [|
          e (Trace.T_mmap { id = 1; len = 16384; writable = true });
          e (Trace.T_touch { id = 1; page = 2; write = true });
          e (Trace.T_touch { id = 1; page = 3; write = false });
        |];
    }
  in
  match Diff.run ~check_every:1 ~backends:[ linux; lazy_touch linux ] trace with
  | Ok _ -> Alcotest.fail "lazy touch not caught"
  | Error d ->
    check Alcotest.string "the first snapshot after the touch"
      "op 1: linux vs linux-lazy-touch: page 2 of proc 0 region 1: resident \
       true vs false"
      (Diff.describe d)

(* mem_stats whose high-water mark lags behind the current residency. *)
let lying_stats (b : System.backend) : System.backend =
  let module B = (val b) in
  (module struct
    include B

    let name = B.name ^ "-lying-stats"

    let mem_stats t =
      let m = B.mem_stats t in
      { m with Backend.peak_resident_bytes = m.Backend.resident_bytes - 1 }
  end)

let test_stats_invariant_caught () =
  let trace = Trace.generate ~profile:Trace.Churn ~ncpus:1 ~ops_per_cpu:30 ~seed:5 in
  match Diff.run ~check_every:1 ~backends:[ lying_stats linux ] trace with
  | Ok _ -> Alcotest.fail "stats invariant violation not caught"
  | Error d ->
    check Alcotest.string "solo violation" d.Diff.d_backend_a d.Diff.d_backend_b;
    check Alcotest.bool "blames mem_stats" true
      (String.length d.Diff.d_what >= 9
      && String.sub d.Diff.d_what 0 9 = "mem_stats")

(* -- The divergence text of snapshot-caught bugs --

   Within one op the snapshot compare reports the last mismatch it
   found, so the exact text depends on the order pages and regions are
   compared in. The digest below pins that text for three mutations the
   snapshots (and the per-op postconditions) catch. *)

(* A munmap that unmaps its own region, then also write-protects a
   second live region the op did not name: the lowest-addressed one. *)
let munmap_protects_other (b : System.backend) : System.backend =
  let module B = (val b) in
  let live = ref [] in
  (module struct
    include B

    let name = B.name ^ "-munmap-protects-other"

    let mmap t ?addr ~len ~perm () =
      let r = B.mmap t ?addr ~len ~perm () in
      (match r with Ok a -> live := (a, len) :: !live | Error _ -> ());
      r

    let munmap t ~addr ~len =
      let r = B.munmap t ~addr ~len in
      live := List.filter (fun (a, _) -> a <> addr) !live;
      (match List.sort compare !live with
      | (a, l) :: _ -> ignore (B.mprotect t ~addr:a ~len:l ~perm:Mm_hal.Perm.r)
      | [] -> ());
      r
  end)

(* Fork, then a munmap in the child: the child's copy of region 1 goes
   read-only while the parent's stays writable, so the mismatch is in
   process 1 only. *)
let fork_munmap_trace =
  let e proc op = { Trace.cpu = 0; proc; op } in
  let mmap id pages = Trace.T_mmap { id; len = pages * 4096; writable = true } in
  {
    Trace.ncpus = 1;
    entries =
      [|
        e 0 (mmap 1 3);
        e 0 (mmap 2 5);
        e 0 (Trace.T_write { id = 1; page = 0; value = 7 });
        e 0 (Trace.T_touch { id = 2; page = 4; write = true });
        e 0 (Trace.T_fork { child = 1 });
        e 1 (mmap 3 2);
        e 1 (Trace.T_munmap { id = 3 });
        e 0 (Trace.T_touch { id = 1; page = 1; write = false });
      |];
  }

let divergence_texts () =
  let verdict ?check_every backends trace =
    match Diff.run ?check_every ~backends trace with
    | Ok n -> Printf.sprintf "ok %d" n
    | Error d -> Diff.describe d
  in
  let mixed = Trace.generate ~profile:Trace.Mixed ~ncpus:2 ~ops_per_cpu:100 ~seed:11 in
  let churn = Trace.generate ~profile:Trace.Churn ~ncpus:2 ~ops_per_cpu:80 ~seed:42 in
  [
    verdict [ linux; silent_mprotect linux ] mixed;
    verdict ~check_every:16 [ linux; broken_munmap linux ] churn;
    verdict [ linux; munmap_protects_other linux ] mixed;
    verdict [ linux; munmap_protects_other linux ] fork_munmap_trace;
  ]

let divergence_text_golden_digest = "09e00c151df24666968f311a4ba085c6"

let test_divergence_text_golden () =
  check Alcotest.string "divergence text digest" divergence_text_golden_digest
    (Digest.to_hex (Digest.string (String.concat "\n" (divergence_texts ()))))

(* -- The trace interpreter -- *)

(* A munmap that always fails. *)
let failing_munmap (b : System.backend) : System.backend =
  let module B = (val b) in
  (module struct
    include B

    let name = B.name ^ "-failing-munmap"
    let munmap _ ~addr:_ ~len:_ = Error Errno.EINVAL
  end)

(* Run [entries] through {!Trace.exec} on a fresh table, one after the
   other in one fiber; return each step's kind and the regions left. *)
let exec_steps backend entries =
  let tbl = Trace.table (System.of_backend backend ~ncpus:1) in
  let kinds = ref [] in
  let w = Mm_sim.Engine.create ~ncpus:1 in
  Mm_sim.Engine.spawn w ~cpu:0 (fun () ->
      List.iter
        (fun e ->
          let kind =
            match Trace.exec tbl e with
            | Trace.Skipped -> "skipped"
            | Trace.Masked -> "masked"
            | Trace.Failed err -> Errno.to_string err
            | Trace.Done _ -> "done"
          in
          kinds := kind :: !kinds)
        entries);
  Mm_sim.Engine.run w;
  (List.rev !kinds, List.map fst (Trace.regions tbl))

let test_exec_steps () =
  let e ?(proc = 0) op = { Trace.cpu = 0; proc; op } in
  let mmap id = e (Trace.T_mmap { id; len = 8192; writable = true }) in
  let touch id page = e (Trace.T_touch { id; page; write = true }) in
  let show = String.concat "," in
  let keys ks =
    String.concat ";" (List.map (fun (p, id) -> Printf.sprintf "%d:%d" p id) ks)
  in
  (* A failed munmap keeps its region: later touches still reach it. *)
  let kinds, live =
    exec_steps (failing_munmap linux)
      [
        mmap 1;
        e (Trace.T_munmap { id = 1 });
        touch 1 1;
        touch 1 2;
        touch 2 0;
        e ~proc:7 (Trace.T_mmap { id = 3; len = 4096; writable = true });
      ]
  in
  check Alcotest.string "failing munmap steps"
    "done,EINVAL,done,skipped,skipped,skipped" (show kinds);
  check Alcotest.string "region survives" "0:1" (keys live);
  (* RadixVM has neither mprotect nor reclaim: those ops are masked,
     unless their region is unknown. A fork's child inherits the
     parent's regions and drops them at exit. *)
  let kinds, live =
    exec_steps (System.backend_of_kind System.Radixvm)
      [
        mmap 1;
        e (Trace.T_mprotect { id = 1; writable = false });
        e (Trace.T_mprotect { id = 9; writable = false });
        e (Trace.T_mlock { id = 1 });
        e (Trace.T_pressure { pages = 4 });
        e (Trace.T_fork { child = 2 });
        e ~proc:2 (Trace.T_munmap { id = 1 });
        mmap 4;
        e ~proc:2 Trace.T_exit;
        e ~proc:2 (touch 1 0).Trace.op;
      ]
  in
  check Alcotest.string "radixvm steps"
    "done,masked,skipped,masked,masked,done,done,done,done,skipped"
    (show kinds);
  check Alcotest.string "root keeps its regions" "0:1;0:4" (keys live)

(* The canonical COW-isolation trace: fork, a parent store after the
   fork, then a child read that must still see the pre-fork value. Clean
   across the whole registry; with the injected CortenMM fork mutant
   (clone_for_fork skips the parent-side write-protect) the parent's
   post-fork store lands in the shared frame unprotected, and the value
   model must pin the divergence to the child's read — the exact op. *)
let cow_trace =
  let e proc op = { Trace.cpu = 0; proc; op } in
  {
    Trace.ncpus = 1;
    entries =
      [|
        e 0 (Trace.T_mmap { id = 1; len = 16384; writable = true });
        e 0 (Trace.T_write { id = 1; page = 0; value = 11111 });
        e 0 (Trace.T_fork { child = 1 });
        e 0 (Trace.T_write { id = 1; page = 0; value = 22222 });
        e 1 (Trace.T_read { id = 1; page = 0 });
        e 1 Trace.T_exit;
      |];
  }

let test_fork_cow_clean () =
  match Diff.run ~check_every:1 cow_trace with
  | Ok n -> check Alcotest.int "all ops checked" 6 n
  | Error d -> Alcotest.failf "clean fork trace diverged: %s" (Diff.describe d)

(* The masking rules: backends without mprotect legitimately diverge on
   post-mprotect writability, so a Mixed trace across the full registry
   (which pairs linux with radixvm/nros) must still be clean — covered by
   [test_mixed_clean] — while two mprotect-capable backends must agree
   exactly. *)
let test_corten_vs_linux_mixed () =
  let trace = Trace.generate ~profile:Trace.Mixed ~ncpus:2 ~ops_per_cpu:100 ~seed:23 in
  let corten = System.backend_of_kind (System.Corten Cortenmm.Config.adv) in
  match Diff.run ~backends:[ linux; corten ] trace with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "diverged: %s" (Diff.describe d)

(* -- The seeded-bug table: every mutant is caught by a named checker --

   The match in [catcher] is exhaustive, so a new mutant does not
   compile until a checker is named for it. *)

module Schedcheck = Mm_schedcheck.Schedcheck
module Schedule = Mm_schedcheck.Schedule

(* Schedule exploration must find a violation within 10 seeds, and the
   minimized schedule must still violate after a file roundtrip. *)
let caught_by_schedcheck protocol m () =
  let cfg =
    {
      Schedcheck.protocol;
      cpus = 4;
      ops_per_cpu = 12;
      workload_seed = 42;
      mutant = Some m;
    }
  in
  match Schedcheck.explore ~seeds:10 cfg with
  | Schedcheck.Clean _ -> Alcotest.fail "mutant not caught within 10 seeds"
  | Schedcheck.Violation { keys; violations; _ } -> (
    check Alcotest.bool "violations reported" false (violations = []);
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        ("schedcheck_" ^ Mutant.name m ^ ".sched")
    in
    Schedule.save (Schedcheck.schedule_of cfg keys) path;
    match Result.bind (Schedule.load path) Schedcheck.replay_schedule with
    | Ok [] -> Alcotest.fail "replayed schedule came back clean"
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg)

(* The fork mutant must surface at the child's read of [cow_trace] (op
   4), as a solo violation on the mutated backend. *)
let caught_by_oracle_at_child_read m () =
  match Diff.run ~check_every:1 ~mutant:m cow_trace with
  | Ok _ -> Alcotest.fail "fork COW mutant not caught"
  | Error d ->
    check Alcotest.int "attributed to the child's read" 4 d.Diff.d_op;
    check Alcotest.string "solo violation on the mutated backend"
      d.Diff.d_backend_a d.Diff.d_backend_b

(* The reclaim trace the CI gate replays: clean unarmed, divergent armed. *)
let caught_by_oracle_on_reclaim m () =
  let trace =
    Trace.generate ~profile:Trace.Reclaim ~ncpus:2 ~ops_per_cpu:150 ~seed:7
  in
  (match Diff.run trace with
  | Ok _ -> ()
  | Error d ->
    Alcotest.failf "unarmed reclaim trace diverged: %s" (Diff.describe d));
  match Diff.run ~mutant:m trace with
  | Ok _ -> Alcotest.fail "reclaim mutant not caught"
  | Error _ -> ()

let catcher : Mutant.t -> string * (unit -> unit) = function
  | Rw_skip_handoff as m ->
    ("schedcheck", caught_by_schedcheck Cortenmm.Config.rw m)
  | Rcu_no_gp as m -> ("schedcheck", caught_by_schedcheck Cortenmm.Config.adv m)
  | Fork_skip_parent_wp as m -> ("oracle", caught_by_oracle_at_child_read m)
  | Reclaim_skip_writeback as m -> ("oracle", caught_by_oracle_on_reclaim m)

let test_mutant_names_roundtrip () =
  List.iter
    (fun m ->
      if Mutant.of_string (Mutant.name m) <> Ok m then
        Alcotest.failf "of_string (name %s) is not the mutant" (Mutant.name m))
    Mutant.all

let test_mutant_unknown_lists_valid () =
  match Mutant.of_string "chaos" with
  | Ok _ -> Alcotest.fail "unknown mutant name accepted"
  | Error msg ->
    List.iter
      (fun m ->
        let n = Mutant.name m in
        let rec mem i =
          i + String.length n <= String.length msg
          && (String.sub msg i (String.length n) = n || mem (i + 1))
        in
        if not (mem 0) then Alcotest.failf "error %S does not list %s" msg n)
      Mutant.all

let test_reset_disarms () =
  List.iter
    (fun m ->
      Mutant.arm (Some m);
      check Alcotest.bool (Mutant.name m ^ " armed") true (Mutant.armed m);
      Mm_workloads.Runner.reset_world_state ();
      check Alcotest.bool (Mutant.name m ^ " disarmed") false (Mutant.armed m))
    Mutant.all

let caught_table =
  List.map
    (fun m ->
      let tool, caught = catcher m in
      Alcotest.test_case
        (Printf.sprintf "%s by %s" (Mutant.name m) tool)
        `Quick caught)
    Mutant.all

let () =
  Alcotest.run "diff-oracle"
    [
      ( "clean",
        [
          Alcotest.test_case "churn across registry" `Quick test_churn_clean;
          Alcotest.test_case "faults across registry" `Quick test_faults_clean;
          Alcotest.test_case "mixed across registry" `Quick test_mixed_clean;
          Alcotest.test_case "forks across registry" `Quick test_forks_clean;
          Alcotest.test_case "check_every=1" `Quick test_check_every_1_clean;
          Alcotest.test_case "corten vs linux, mixed" `Quick
            test_corten_vs_linux_mixed;
          Alcotest.test_case "fork COW isolation clean" `Quick
            test_fork_cow_clean;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "broken munmap caught at op" `Quick
            test_broken_munmap_caught;
          Alcotest.test_case "silent mprotect caught" `Quick
            test_silent_mprotect_caught;
          Alcotest.test_case "stats invariant caught" `Quick
            test_stats_invariant_caught;
          Alcotest.test_case "lazy touch caught by residency" `Quick
            test_lazy_touch_caught;
          Alcotest.test_case "divergence text golden" `Quick
            test_divergence_text_golden;
        ] );
      ( "interpreter",
        [ Alcotest.test_case "exec steps" `Quick test_exec_steps ] );
      ("caught", caught_table);
      ( "mutants",
        [
          Alcotest.test_case "of_string inverts name" `Quick
            test_mutant_names_roundtrip;
          Alcotest.test_case "unknown name lists the valid ones" `Quick
            test_mutant_unknown_lists_valid;
          Alcotest.test_case "reset_world_state disarms" `Quick
            test_reset_disarms;
        ] );
    ]
