(* Tests for lib/obs: ring-buffer mechanics, the determinism guarantee
   (identical runs produce byte-identical event streams; tracing never
   perturbs virtual time), Chrome trace_event export, the metrics
   registry, the contention profile, and agreement between the traced
   Stale_retry events and [Addr_space.stale_retries]. *)

module Engine = Mm_sim.Engine
module Ring = Mm_obs.Ring
module Event = Mm_obs.Event
module Trace = Mm_obs.Trace
module Metrics = Mm_obs.Metrics
module Contention = Mm_obs.Contention
module Json = Mm_obs.Json
module Chrome = Mm_obs.Chrome
module Micro = Mm_workloads.Micro
module Runner = Mm_workloads.Runner
module System = Mm_workloads.System

let check = Alcotest.check

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* -- Ring buffer -- *)

let test_ring_basic () =
  let r = Ring.create ~capacity:4 in
  check Alcotest.int "empty" 0 (Ring.length r);
  List.iter (fun i -> Ring.push r i) [ 0; 1; 2 ];
  check Alcotest.int "partial" 3 (Ring.length r);
  check Alcotest.int "no drops" 0 (Ring.dropped r);
  check Alcotest.(list int) "order" [ 0; 1; 2 ] (Ring.to_list r)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:4 in
  for i = 0 to 9 do
    Ring.push r i
  done;
  check Alcotest.int "full" 4 (Ring.length r);
  check Alcotest.int "dropped" 6 (Ring.dropped r);
  (* Oldest-first survivors are the last [capacity] pushes. *)
  check Alcotest.(list int) "survivors" [ 6; 7; 8; 9 ] (Ring.to_list r);
  Ring.clear r;
  check Alcotest.int "cleared" 0 (Ring.length r)

(* -- Trace sessions -- *)

let test_trace_off_is_noop () =
  check Alcotest.bool "off" false (Trace.on ());
  check Alcotest.bool "no subscriber" false (Mm_obs.Bus.on ());
  (* Emitting without a subscriber must be a silent no-op. *)
  Mm_obs.Bus.emit ~time:0 ~cpu:0 Event.Rcu_enter;
  check Alcotest.int "nothing recorded" 0 (List.length (Trace.events ()))

let run_micro () =
  Micro.run
    ~kind:(System.Corten Cortenmm.Config.adv)
    ~ncpus:4 ~bench:Micro.Pf ~contention:Micro.High ~iters:20 ()

let traced_micro () =
  Trace.start ~capacity:(1 lsl 18) ();
  let r = run_micro () in
  let events = Trace.stop () in
  (r, events)

let test_trace_determinism () =
  let r1, e1 = traced_micro () in
  let r2, e2 = traced_micro () in
  check Alcotest.bool "events recorded" true (List.length e1 > 0);
  check Alcotest.bool "byte-identical streams" true
    (Trace.to_text e1 = Trace.to_text e2);
  match (r1, r2) with
  | Some r1, Some r2 ->
    check Alcotest.int "identical cycles" r1.Runner.cycles r2.Runner.cycles
  | _ -> Alcotest.fail "micro benchmark did not run"

let test_tracing_does_not_perturb () =
  (* The same workload, traced and untraced, must report bit-identical
     virtual-time results: recording never advances simulated time. *)
  let plain =
    match run_micro () with
    | Some r -> r.Runner.cycles
    | None -> Alcotest.fail "micro benchmark did not run"
  in
  let traced =
    match traced_micro () with
    | Some r, _ -> r.Runner.cycles
    | None, _ -> Alcotest.fail "micro benchmark did not run"
  in
  check Alcotest.int "cycles identical with tracing on" plain traced

(* -- Chrome export -- *)

let test_chrome_json_wellformed () =
  let _, events = traced_micro () in
  let text = Json.to_string (Chrome.to_json events) in
  match Json.parse text with
  | Error msg -> Alcotest.fail ("chrome JSON does not parse: " ^ msg)
  | Ok json -> (
    match Option.bind (Json.member "traceEvents" json) Json.to_list_opt with
    | None -> Alcotest.fail "no traceEvents array"
    | Some items ->
      check Alcotest.bool "has events" true (List.length items > 0);
      List.iter
        (fun item ->
          List.iter
            (fun field ->
              if Json.member field item = None then
                Alcotest.fail ("event missing field " ^ field))
            [ "name"; "ph"; "pid"; "tid" ];
          (* Complete events reconstruct [time - span, time]: ts must not
             go negative. *)
          match (Json.member "ph" item, Json.member "ts" item) with
          | Some (Json.String "X"), Some (Json.Int ts) ->
            check Alcotest.bool "span ts >= 0" true (ts >= 0)
          | _ -> ())
        items)

(* -- JSON corner cases -- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd");
        ("l", Json.List [ Json.Int 1; Json.Null; Json.Bool true ]);
        ("f", Json.Float 1.5);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> check Alcotest.bool "roundtrip" true (v = v')
  | Error msg -> Alcotest.fail msg

let test_json_rejects_garbage () =
  (match Json.parse "{\"a\": }" with
  | Ok _ -> Alcotest.fail "accepted malformed object"
  | Error _ -> ());
  match Json.parse "[1,2] trailing" with
  | Ok _ -> Alcotest.fail "accepted trailing garbage"
  | Error _ -> ()

(* -- Metrics -- *)

(* The registry is written only by [Metrics.record], from events. *)
let test_metrics () =
  Metrics.reset ();
  List.iter
    (fun payload ->
      Metrics.record { Event.seq = 0; time = 0; cpu = 0; payload })
    [
      Event.Tlb_latr_drain { entries = 1 };
      Tlb_latr_drain { entries = 4 };
      Tlb_batch_flush { stalls = [ 1; 2; 4; 8 ] };
      (* No split: no [buddy.splits]; a pass moving nothing still
         registers [swapd.*]; a reader's release holds nothing. *)
      Frame_allocated { pfn = 0; pages = 4; splits = 0 };
      Reclaim_pass { scanned = 0; second_chances = 0; swapped = 0 };
      Lock_release { lock = 0; kind = Rw_read; held = 0; name = None };
    ];
  check
    Alcotest.(list (pair string int))
    "counters"
    [ ("phys.frame_allocs", 1); ("swapd.scanned", 0);
      ("swapd.second_chances", 0); ("swapd.swapped", 0);
      ("tlb.batch_flushes", 1); ("tlb.latr_drained", 5) ]
    (Metrics.counters ());
  check
    Alcotest.(list string)
    "histograms"
    [ "phys.alloc_order"; "tlb.batch_stall_cycles" ]
    (List.map fst (Metrics.histograms ()));
  check Alcotest.int "alloc order" 2
    (Metrics.max_value (List.assoc "phys.alloc_order" (Metrics.histograms ())));
  let h = List.assoc "tlb.batch_stall_cycles" (Metrics.histograms ()) in
  check Alcotest.int "samples" 4 (Metrics.samples h);
  check Alcotest.int "total" 15 (Metrics.total h);
  check Alcotest.int "max" 8 (Metrics.max_value h);
  check (Alcotest.float 0.001) "mean" 3.75 (Metrics.mean h);
  check Alcotest.bool "median bucket" true (Metrics.quantile h 0.5 <= 4);
  let dump = Metrics.dump () in
  check Alcotest.bool "dump lists counter" true
    (contains ~needle:"tlb.latr_drained" dump);
  check Alcotest.bool "dump lists histogram" true
    (contains ~needle:"tlb.batch_stall_cycles" dump);
  Metrics.reset ();
  check Alcotest.int "reset" 0 (List.length (Metrics.counters ()))

(* -- Contention profile -- *)

let test_contention_ranking () =
  Trace.start ();
  let hot = Mm_sim.Mutex_s.make ~name:"test.hot" () in
  let cold = Mm_sim.Mutex_s.make ~name:"test.cold" () in
  let w = Engine.create ~ncpus:4 in
  for cpu = 0 to 3 do
    Engine.spawn w ~cpu (fun () ->
        for _ = 1 to 10 do
          Mm_sim.Mutex_s.lock hot;
          Engine.tick 500;
          Mm_sim.Mutex_s.unlock hot
        done;
        if cpu = 0 then begin
          Mm_sim.Mutex_s.lock cold;
          Mm_sim.Mutex_s.unlock cold
        end)
  done;
  Engine.run w;
  (match Contention.top () with
  | None -> Alcotest.fail "no contention recorded"
  | Some e ->
    check Alcotest.string "top lock is the hot one" "test.hot"
      e.Contention.name;
    check Alcotest.bool "serialized cycles recorded" true
      (e.Contention.wait_cycles > 0);
    check Alcotest.int "all acquisitions counted" 40
      e.Contention.acquisitions);
  let report = Contention.report () in
  check Alcotest.bool "report names the hot lock" true
    (contains ~needle:"test.hot" report);
  ignore (Trace.stop ())

(* -- Engine stats satellites -- *)

let test_engine_stats_consistency () =
  let m = Mm_sim.Mutex_s.make () in
  let w = Engine.create ~ncpus:4 in
  for cpu = 0 to 3 do
    Engine.spawn w ~cpu (fun () ->
        for _ = 1 to 5 do
          Mm_sim.Mutex_s.lock m;
          Engine.tick 100;
          Mm_sim.Mutex_s.unlock m
        done)
  done;
  Engine.run w;
  let s = Engine.stats w in
  check Alcotest.bool "parks >= wakes" true (s.Engine.parks >= s.Engine.wakes);
  check Alcotest.bool "wakes happened" true (s.Engine.wakes > 0);
  check Alcotest.bool "ready-queue high-water >= 1" true
    (s.Engine.max_ready_queue >= 1);
  check Alcotest.bool "high-water bounded by fibers" true
    (s.Engine.max_ready_queue <= 4)

(* -- One bus, two subscribers --

   The trace ring and any other subscriber (the live checker) see one
   history: every event the ring recorded, in the same order, with the
   same stamps. Events emitted outside a fiber (cpu -1) reach the other
   subscriber only. *)

let test_subscribers_share_history () =
  let seen = ref [] in
  let sub = Mm_obs.Bus.subscribe (fun e -> seen := e :: !seen) in
  Trace.start ~capacity:(1 lsl 18) ();
  ignore (run_micro ());
  let ring = Trace.stop () in
  Mm_obs.Bus.unsubscribe sub;
  check Alcotest.bool "off again" false (Mm_obs.Bus.on ());
  let in_fiber = List.filter (fun e -> e.Event.cpu >= 0) (List.rev !seen) in
  check Alcotest.bool "events recorded" true (ring <> []);
  check Alcotest.string "same history" (Trace.to_text ring)
    (Trace.to_text in_fiber)

(* -- Trace-text compatibility --

   The merged stream adds kinds (frame, object, reclaim, lock downgrade,
   RCU fire) but leaves the 18 kinds of the pre-merge trace untouched.
   Filtered to those kinds and renumbered, a fixed traced run must match
   the digest the pre-merge tracer recorded for the same run. The one
   deliberate move: [Cursor_commit] is now announced where the live
   checker needs it — before the commit's shootdown and unlocks — so its
   stamps and position differ; its payloads must still match as a
   multiset. *)

let pre_merge_kinds =
  [ "lock-acquire"; "lock-release"; "lock-contend"; "rcu-enter"; "rcu-exit";
    "rcu-defer"; "rcu-gp"; "tlb-shootdown"; "tlb-latr-drain"; "pt-split";
    "pt-free"; "cursor-lock"; "cursor-commit"; "stale-retry"; "page-fault";
    "span-begin"; "span-end"; "counter" ]

(* Adv and rw PT-page churn under concurrent touchers (rcu-defer, rcu-gp,
   pt-free, stale-retry), then a small serve matrix (faults, shootdowns,
   linux's rwlock downgrade). *)
let compat_workload () =
  let churn cfg =
    let ps = 4096 and base = 0x4000_0000 and pages = 1024 and ncpus = 4 in
    let len = pages * ps in
    let asp_box = ref None in
    ignore
      (Runner.run_phases ~ncpus
         ~setup:(fun () ->
           let kernel = Cortenmm.Kernel.create ~ncpus () in
           let asp = Cortenmm.Addr_space.create kernel cfg in
           ignore (Mm_compat.mmap asp ~addr:base ~len ~perm:Mm_hal.Perm.rw ());
           asp_box := Some asp)
         ~measure:(fun cpu ->
           let asp = Option.get !asp_box in
           if cpu = 0 then
             for _ = 1 to 4 do
               Mm_compat.munmap asp ~addr:base ~len;
               ignore
                 (Mm_compat.mmap asp ~addr:base ~len ~perm:Mm_hal.Perm.rw ())
             done
           else
             for i = 1 to 40 do
               let v = base + ((cpu * 37) + i) mod pages * ps in
               try Cortenmm.Mm.touch asp ~vaddr:v ~write:true
               with Cortenmm.Mm.Fault _ -> ()
             done)
         ())
  in
  churn Cortenmm.Config.adv;
  churn Cortenmm.Config.rw;
  let systems =
    List.map
      (fun n -> Result.get_ok (System.Registry.find n))
      [ "cortenmm-adv"; "cortenmm-rw"; "linux" ]
  in
  ignore
    (Mm_serve.Serve.run_matrix ~systems ~mix:Mm_serve.Mix.mixed
       ~policies:Mm_serve.Serve.policies ~ncpus:4 ~sessions:40 ~seed:42 ())

let compat_run () =
  Trace.start ~capacity:(1 lsl 18) ();
  compat_workload ();
  let dropped = Trace.dropped () in
  (dropped, Trace.stop ())

let test_trace_text_compat () =
  let dropped, events = compat_run () in
  check Alcotest.int "no ring overflow" 0 dropped;
  let kind e = Event.name e.Event.payload in
  let kept =
    List.filter
      (fun e -> List.mem (kind e) pre_merge_kinds && kind e <> "cursor-commit")
      events
    |> List.mapi (fun i e -> { e with Event.seq = i })
  in
  check Alcotest.int "pre-merge events" 29828 (List.length kept);
  check Alcotest.string "pre-merge text digest"
    "961ba3263aae85c3ee1d1ce5a573d370"
    (Digest.to_hex (Digest.string (Trace.to_text kept)));
  let commits =
    List.filter_map
      (fun e ->
        if kind e = "cursor-commit" then
          Some
            (Printf.sprintf "cpu%d %s" e.Event.cpu
               (String.concat " "
                  (List.map
                     (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                     (Event.payload_args e.Event.payload))))
        else None)
      events
    |> List.sort compare
  in
  check Alcotest.int "cursor commits" 2602 (List.length commits);
  check Alcotest.string "cursor-commit payload digest"
    "2bb1120a9660ff5940c24b155b19ca8b"
    (Digest.to_hex (Digest.string (String.concat "\n" commits)));
  (* The ring now carries what only the live checker used to see. *)
  List.iter
    (fun k ->
      check Alcotest.bool (k ^ " recorded") true
        (List.exists (fun e -> kind e = k) events))
    [ "frame-allocated"; "obj-created"; "rcu-fire"; "lock-downgrade" ]

(* -- Registry contents --

   The contention report and the metrics dump over one fixed traced run
   that reaches every registry name: the compat churn (stale retries, PT
   frees, RCU grace periods) and serve matrix (batched shootdowns),
   concurrent unmaps (LATR drains), a THP split, and a reclaim storm (the
   page-out daemon's wakeups and clock passes). *)

let thp_split () =
  let mib n = n * 1024 * 1024 in
  let w = Engine.create ~ncpus:1 in
  Engine.spawn w ~cpu:0 (fun () ->
      let kernel = Cortenmm.Kernel.create ~ncpus:1 () in
      let asp = Cortenmm.Addr_space.create kernel Cortenmm.Config.adv in
      let addr =
        Mm_compat.mmap asp ~addr:(mib 512) ~len:(mib 2) ~perm:Mm_hal.Perm.rw ()
      in
      Cortenmm.Mm.touch_range asp ~addr ~len:(mib 2) ~write:true;
      assert (Cortenmm.Mm.promote_huge asp ~vaddr:addr);
      (* Unmapping half the huge leaf splits it. *)
      Mm_compat.munmap asp ~addr ~len:(mib 1));
  Engine.run w

let registry_run ~capacity =
  Trace.start ~capacity ();
  compat_workload ();
  (* Concurrent unmaps of one shared region: remote LATR invalidations,
     drained on the timer tick. *)
  ignore
    (Micro.run
       ~kind:(System.Corten Cortenmm.Config.adv)
       ~ncpus:4 ~bench:Micro.Unmap ~contention:Micro.High ~iters:16 ());
  thp_split ();
  ignore
    (Mm_serve.Serve.run_matrix
       ~systems:[ Result.get_ok (System.Registry.find "cortenmm-adv") ]
       ~mix:Mm_serve.Mix.reclaim_storm ~policies:Mm_serve.Serve.policies
       ~ncpus:2 ~sessions:240 ~seed:7 ());
  let text = Contention.report () ^ "\n" ^ Metrics.dump () in
  let names =
    List.map fst (Metrics.counters ()) @ List.map fst (Metrics.histograms ())
  in
  ignore (Trace.stop ());
  (text, names)

(* The names perfbench's per-layer metrics read; it reads a missing name
   as 0, so a renamed metric would silently zero a per-layer number. *)
let perfbench_names =
  [ "rcu.deferred"; "phys.frame_allocs"; "phys.frame_frees"; "buddy.splits";
    "buddy.merges"; "cursor.lock_cycles"; "fault.cycles";
    "addr_space.stale_retries"; "addr_space.pt_splits";
    "addr_space.pt_pages_freed"; "pageoutd.wakeups"; "swapd.scanned";
    "swapd.second_chances"; "swapd.swapped"; "tlb.shootdowns";
    "tlb.shootdown_fanout"; "tlb.batch_flushes"; "tlb.batch_stall_cycles";
    "tlb.latr_drained" ]

let test_registry_contents () =
  let text, names = registry_run ~capacity:(1 lsl 18) in
  List.iter
    (fun n -> check Alcotest.bool (n ^ " registered") true (List.mem n names))
    perfbench_names;
  check Alcotest.(list string) "every registry name"
    [ "addr_space.pt_pages_freed"; "addr_space.pt_splits";
      "addr_space.stale_retries"; "buddy.merges"; "buddy.splits";
      "pageoutd.wakeups"; "phys.frame_allocs"; "phys.frame_frees";
      "rcu.deferred"; "rcu.gp_callbacks"; "swapd.scanned";
      "swapd.second_chances"; "swapd.swapped"; "tlb.batch_flushes";
      "tlb.latr_drained"; "tlb.shootdowns"; "cursor.lock_cycles";
      "fault.cycles"; "lock.hold_cycles"; "lock.wait_cycles";
      "phys.alloc_order"; "tlb.batch_stall_cycles"; "tlb.shootdown_fanout" ]
    names;
  check Alcotest.string "report and dump digest"
    "de89cbc1dd9a13bb7d6ef34aa08a5970"
    (Digest.to_hex (Digest.string text))

(* Rings that wrap on almost every event must not change a registry. *)
let test_registries_ignore_ring_drops () =
  let full, _ = registry_run ~capacity:(1 lsl 18) in
  let tiny, _ = registry_run ~capacity:16 in
  check Alcotest.string "identical report and dump" full tiny

(* -- Stale-retry agreement (adv protocol, Fig 6 L10-13) -- *)

let test_stale_retries_agree () =
  Trace.start ~capacity:(1 lsl 20) ();
  let asp_box = ref None in
  let ps = 4096 in
  let base = 0x4000_0000 in
  (* The window must span multiple L1 PT pages (> 2 MiB): [free_child]
     only fires on strict descendants of the unmapper's covering node, so
     a single-PT-page window never marks anything stale. *)
  let pages = 1024 in
  let len = pages * ps in
  let ncpus = 4 in
  ignore
    (Runner.run_phases ~ncpus
       ~setup:(fun () ->
         let kernel = Cortenmm.Kernel.create ~ncpus () in
         let asp = Cortenmm.Addr_space.create kernel Cortenmm.Config.adv in
         ignore (Mm_compat.mmap asp ~addr:base ~len ~perm:Mm_hal.Perm.rw ());
         asp_box := Some asp)
       ~measure:(fun cpu ->
         let asp = Option.get !asp_box in
         if cpu = 0 then
           (* Churn the window: each munmap empties the covering PT
              page(s), marking them stale under concurrent touchers. *)
           for _ = 1 to 20 do
             Mm_compat.munmap asp ~addr:base ~len;
             ignore
               (Mm_compat.mmap asp ~addr:base ~len ~perm:Mm_hal.Perm.rw ())
           done
         else
           for i = 1 to 120 do
             let v = base + ((cpu * 37) + i) mod pages * ps in
             try Cortenmm.Mm.touch asp ~vaddr:v ~write:true
             with Cortenmm.Mm.Fault _ -> ()
           done)
       ());
  let asp = Option.get !asp_box in
  let dropped = Trace.dropped () in
  let events = Trace.stop () in
  check Alcotest.int "no ring overflow" 0 dropped;
  let traced =
    List.length
      (List.filter (fun e -> e.Event.payload = Event.Stale_retry) events)
  in
  check Alcotest.bool "the retry path was exercised" true (traced > 0);
  check Alcotest.int "trace agrees with Addr_space.stale_retries"
    (Cortenmm.Addr_space.stale_retries asp)
    traced

(* -- Quantile error bounds --

   [Metrics.quantile] documents: for an exact rank-ceil(q*n) value
   x >= 1, the reported r satisfies x <= r <= max 1 (2x - 1) (and an
   exact 0 reports at most 1). Check it against exact sorted-sample
   percentiles over adversarial and random distributions. *)

let exact_quantile values q =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  a.(rank - 1)

let check_quantile_bounds ~name values =
  let h = Metrics.unregistered name in
  List.iter (Metrics.observe h) values;
  List.iter
    (fun q ->
      let exact = exact_quantile values q in
      let approx = Metrics.quantile h q in
      let ub = if exact <= 0 then 1 else max 1 ((2 * exact) - 1) in
      check Alcotest.bool
        (Printf.sprintf "%s q=%.3f: %d <= %d (never under)" name q exact
           approx)
        true (approx >= exact);
      check Alcotest.bool
        (Printf.sprintf "%s q=%.3f: %d <= %d (within 2x)" name q approx ub)
        true (approx <= ub))
    [ 0.5; 0.9; 0.99; 0.999; 1.0 ]

let test_quantile_bounds () =
  check_quantile_bounds ~name:"uniform" (List.init 1000 (fun i -> i + 1));
  check_quantile_bounds ~name:"constant" (List.init 100 (fun _ -> 42));
  check_quantile_bounds ~name:"powers"
    (List.init 500 (fun i -> 1 lsl (i mod 20)));
  check_quantile_bounds ~name:"bucket-edges"
    (List.concat_map (fun b -> [ (1 lsl b) - 1; 1 lsl b; (1 lsl b) + 1 ])
       (List.init 15 (fun b -> b + 1)));
  check_quantile_bounds ~name:"with-zeros"
    (0 :: 0 :: 0 :: List.init 50 (fun i -> i));
  let rng = Mm_util.Rng.create ~seed:7 in
  check_quantile_bounds ~name:"random-heavy-tail"
    (List.init 2000 (fun _ ->
         let base = Mm_util.Rng.int rng 1000 in
         if Mm_util.Rng.int rng 100 < 2 then base * 1000 else base))

let test_quantile_registry_independence () =
  (* unregistered histograms with one name do not share state, and never
     appear in the global enumeration. *)
  let a = Metrics.unregistered "indep" and b = Metrics.unregistered "indep" in
  Metrics.observe a 100;
  check Alcotest.int "a has the sample" 1 (Metrics.samples a);
  check Alcotest.int "b does not" 0 (Metrics.samples b);
  check Alcotest.bool "not in the registry" true
    (not (List.exists (fun (n, _) -> n = "indep") (Metrics.histograms ())))

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
        ] );
      ( "trace",
        [
          Alcotest.test_case "off is no-op" `Quick test_trace_off_is_noop;
          Alcotest.test_case "determinism" `Quick test_trace_determinism;
          Alcotest.test_case "zero perturbation" `Quick
            test_tracing_does_not_perturb;
          Alcotest.test_case "subscribers share one history" `Quick
            test_subscribers_share_history;
          Alcotest.test_case "pre-merge text compatible" `Quick
            test_trace_text_compat;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome wellformed" `Quick
            test_chrome_json_wellformed;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "json rejects garbage" `Quick
            test_json_rejects_garbage;
        ] );
      ( "registries",
        [
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "quantile error bounds" `Quick
            test_quantile_bounds;
          Alcotest.test_case "unregistered histograms independent" `Quick
            test_quantile_registry_independence;
          Alcotest.test_case "contention ranking" `Quick
            test_contention_ranking;
          Alcotest.test_case "registry contents" `Quick
            test_registry_contents;
          Alcotest.test_case "registries ignore ring drops" `Quick
            test_registries_ignore_ring_drops;
        ] );
      ( "integration",
        [
          Alcotest.test_case "engine stats consistent" `Quick
            test_engine_stats_consistency;
          Alcotest.test_case "stale retries agree" `Quick
            test_stale_retries_agree;
        ] );
    ]
