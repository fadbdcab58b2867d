(* Extension experiments — beyond the paper's evaluation, exercising the
   features the paper lists as future work or engineering extensions:
   NUMA policies (§4.5), transparent huge pages, and the swap daemon. *)

module Tablefmt = Mm_util.Tablefmt

(* Printed output goes through the capture-aware sink so parallel
   drivers can replay each experiment's stream in submission order. *)
module Printf = struct
  include Stdlib.Printf

  let printf fmt = Mm_util.Out.printf fmt
end

let print_newline = Mm_util.Out.print_newline
let _ = print_newline

module Engine = Mm_sim.Engine
module Perm = Mm_hal.Perm
open Cortenmm

let page = 4096
let mib n = n * 1024 * 1024
let ok = function Ok v -> v | Error e -> raise (Mm_hal.Errno.Error e)

(* -- ext-numa: fault cost under each policy on a 2-node machine
      (cell-based: one world per policy) -- *)

let ext_numa_policies =
  [
    ("default (local)", Numa.Default);
    ("bind local node", Numa.Bind 0);
    ("bind remote node", Numa.Bind 1);
    ("interleave 0,1", Numa.Interleave [ 0; 1 ]);
  ]

let ext_numa_run ~policy =
  let kernel = Kernel.create ~numa_nodes:2 ~ncpus:2 () in
  let asp = Addr_space.create kernel Config.adv in
  let out = ref 0 in
  let w = Engine.create ~ncpus:2 in
  Engine.spawn w ~cpu:0 (fun () ->
      let len = 256 * page in
      let addr = ok (Mm.mmap_r asp ~policy ~len ~perm:Perm.rw ()) in
      let t0 = Engine.now () in
      Mm.touch_range asp ~addr ~len ~write:true;
      out := (Engine.now () - t0) / 256);
  Engine.run w;
  !out

let ext_numa_plan () =
  let cells =
    List.map
      (fun (name, policy) ->
        Plan.cell ~label:name ~weight:1.0 (fun () ->
            Plan.of_cycles (ext_numa_run ~policy)))
      ext_numa_policies
  in
  let render celled =
    let take = Plan.taker celled in
    Printf.printf
      "## ext-numa — anonymous fault cost per NUMA policy (2 nodes)\n\
       The policy lives in the per-PTE metadata (the paper's §4.5 plan);\n\
       faults allocate per policy, remote allocations pay the interconnect.\n\n";
    Tablefmt.print
      ~header:[ "policy"; "cycles/fault" ]
      (List.map
         (fun (name, _policy) -> [ name; string_of_int (Plan.cycles (take ())) ])
         ext_numa_policies);
    Printf.printf
      "\nExpected: local == bind-local < interleave < bind-remote.\n\n"
  in
  { Plan.cells; render }

(* -- ext-thp: huge-page promotion effect on TLB reach -- *)

let ext_thp () =
  Printf.printf
    "## ext-thp — transparent huge pages: PT pages and re-walk cost\n\
     khugepaged collapses fully-populated 2 MiB regions into huge leaves:\n\
     fewer PT pages and a one-entry TLB footprint per region.\n\n";
  let run ~thp =
    let kernel = Kernel.create ~ncpus:1 () in
    let cfg = if thp then Config.with_thp Config.adv else Config.adv in
    let asp = Addr_space.create kernel cfg in
    let pt_pages = ref 0 and rewalk = ref 0 in
    let w = Engine.create ~ncpus:1 in
    Engine.spawn w ~cpu:0 (fun () ->
        let len = mib 16 in
        let addr = ok (Mm.mmap_r asp ~addr:(mib 512) ~len ~perm:Perm.rw ()) in
        Mm.touch_range asp ~addr ~len ~write:true;
        pt_pages := Mm_pt.Pt.pt_page_count (Addr_space.pt asp);
        (* Flush the TLB, then re-walk every 64th page. *)
        Mm.timer_tick asp;
        let tlb = Addr_space.tlb asp in
        Mm_tlb.Tlb.flush_local tlb ~cpu:0
          ~vpns:(List.init 64 (fun i -> (addr / page) + (i * 64)));
        let t0 = Engine.now () in
        let rec go i =
          if i < 64 then begin
            Mm.touch asp ~vaddr:(addr + (i * 64 * page)) ~write:false;
            go (i + 1)
          end
        in
        go 0;
        rewalk := (Engine.now () - t0) / 64);
    Engine.run w;
    (!pt_pages, !rewalk)
  in
  let base_pt, base_walk = run ~thp:false in
  let thp_pt, thp_walk = run ~thp:true in
  Tablefmt.print
    ~header:[ "config"; "PT pages (16 MiB)"; "cycles/re-walk" ]
    [
      [ "4 KiB pages"; string_of_int base_pt; string_of_int base_walk ];
      [ "THP"; string_of_int thp_pt; string_of_int thp_walk ];
    ];
  Printf.printf
    "\nExpected: THP removes the level-1 PT pages (8 of them for 16 MiB)\n\
     and shortens the walk by one level.\n\n"

(* -- ext-swapd: second-chance reclaim under memory pressure -- *)

let ext_swapd () =
  Printf.printf
    "## ext-swapd — swap daemon: hot pages survive, cold pages go to disk\n\n";
  let kernel = Kernel.create ~ncpus:1 () in
  let asp = Addr_space.create kernel Config.adv in
  let dev = Blockdev.create ~name:"nvme0swap" () in
  let daemon = Pageoutd.create kernel ~dev () in
  Pageoutd.register_space daemon asp;
  let survived_hot = ref 0 and resident_total = ref 0 in
  let w = Engine.create ~ncpus:1 in
  Engine.spawn w ~cpu:0 (fun () ->
      let len = 256 * page in
      let addr = ok (Mm.mmap_r asp ~len ~perm:Perm.rw ()) in
      Mm.touch_range asp ~addr ~len ~write:true;
      (* Age everything once, then keep 32 pages hot. *)
      Pageoutd.age daemon;
      Mm.timer_tick asp;
      for i = 0 to 31 do
        Mm.touch asp ~vaddr:(addr + (i * 8 * page)) ~write:false
      done;
      ignore (Pageoutd.run_once daemon ~target:200);
      for i = 0 to 31 do
        Addr_space.with_lock asp ~lo:(addr + (i * 8 * page))
          ~hi:(addr + (i * 8 * page) + page) (fun c ->
            match Addr_space.query c (addr + (i * 8 * page)) with
            | Status.Mapped _ -> incr survived_hot
            | _ -> ())
      done;
      resident_total := 256 - Blockdev.used_blocks dev);
  Engine.run w;
  let stats = Pageoutd.stats daemon in
  Tablefmt.print
    ~header:[ "metric"; "value" ]
    [
      [ "pages scanned"; string_of_int stats.Pageoutd.scanned ];
      [ "second chances"; string_of_int stats.Pageoutd.second_chances ];
      [ "pages swapped"; string_of_int stats.Pageoutd.swapped ];
      [ "hot pages surviving"; Printf.sprintf "%d / 32" !survived_hot ];
      [ "pages still resident"; string_of_int !resident_total ];
    ];
  Printf.printf "\nExpected: all 32 hot pages survive the reclaim pass.\n\n"


(* -- ext-reclaim: fault tail latency under page-out pressure, rw vs adv
      (cell-based: one world per (protocol, pressure)) -- *)

let ext_reclaim_cpus = 4
let ext_reclaim_pages = 96 (* per-CPU working set, pages *)
let ext_reclaim_rounds = 4

(* Every CPU seeds a private working set with data tokens, then re-reads
   it for [rounds] rounds. With [pressure] on, CPU 0 opens each round
   with a forced page-out daemon pass over half the fleet's resident
   pages: the evictions turn later reads into swap-in refaults, which is
   exactly the latency the tail percentiles surface. Token equality on
   every read doubles as the value-model check that reclaim round-trips
   user data. *)
let ext_reclaim_run ~cfg ~pressure =
  let kernel = Kernel.create ~ncpus:ext_reclaim_cpus () in
  let asp = Addr_space.create kernel cfg in
  let dev = Blockdev.create ~name:"nvme0swap" () in
  let daemon = Pageoutd.create kernel ~dev () in
  Pageoutd.register_space daemon asp;
  let h = Mm_obs.Metrics.unregistered "ext-reclaim.fault" in
  let w = Engine.create ~ncpus:ext_reclaim_cpus in
  for cpu = 0 to ext_reclaim_cpus - 1 do
    Engine.spawn w ~cpu (fun () ->
        let len = ext_reclaim_pages * page in
        let addr = ok (Mm.mmap_r asp ~len ~perm:Perm.rw ()) in
        for p = 0 to ext_reclaim_pages - 1 do
          Mm.write_value asp ~vaddr:(addr + (p * page))
            ~value:((cpu * 1000) + p + 1)
        done;
        for _round = 1 to ext_reclaim_rounds do
          if pressure && cpu = 0 then
            ignore
              (Pageoutd.pressure daemon
                 ~target_pages:(ext_reclaim_cpus * ext_reclaim_pages / 2));
          Mm.timer_tick asp;
          for p = 0 to ext_reclaim_pages - 1 do
            let t0 = Engine.now () in
            let v = Mm.read_value asp ~vaddr:(addr + (p * page)) in
            Mm_obs.Metrics.observe h (Engine.now () - t0);
            if v <> (cpu * 1000) + p + 1 then
              failwith "ext-reclaim: data token lost across page-out"
          done
        done)
  done;
  Engine.run w;
  (* Pack the fault percentiles into a plain record (the [of_cycles]
     convention): p50 in [ops], p99 in [cycles], p999 in [ops_per_sec]. *)
  Some
    {
      Mm_workloads.Runner.ops = Mm_obs.Metrics.quantile h 0.5;
      cycles = Mm_obs.Metrics.quantile h 0.99;
      ops_per_sec = float_of_int (Mm_obs.Metrics.quantile h 0.999);
    }

let ext_reclaim_cells =
  [
    ("rw", Config.rw, false);
    ("rw", Config.rw, true);
    ("adv", Config.adv, false);
    ("adv", Config.adv, true);
  ]

let ext_reclaim_plan () =
  let cells =
    List.map
      (fun (name, cfg, pressure) ->
        Plan.cell
          ~label:
            (Printf.sprintf "reclaim/%s/%s" name
               (if pressure then "storm" else "idle"))
          ~weight:4.0
          (fun () -> ext_reclaim_run ~cfg ~pressure))
      ext_reclaim_cells
  in
  let render celled =
    let take = Plan.taker celled in
    Printf.printf
      "## ext-reclaim — fault tail latency under page-out pressure\n\
       %d CPUs re-read private %d-page working sets for %d rounds; under\n\
       \"storm\" the page-out daemon force-reclaims half the fleet's\n\
       resident pages between rounds, turning reads into swap-in\n\
       refaults. Per-read latency percentiles, in cycles; every read\n\
       checks its data token, so the table doubles as a reclaim\n\
       round-trip proof.\n\n"
      ext_reclaim_cpus ext_reclaim_pages ext_reclaim_rounds;
    Tablefmt.print
      ~header:[ "protocol"; "pressure"; "read p50"; "read p99"; "read p999" ]
      (List.map
         (fun (name, _cfg, pressure) ->
           match take () with
           | Some r ->
             [
               name;
               (if pressure then "storm" else "idle");
               string_of_int r.Mm_workloads.Runner.ops;
               string_of_int r.Mm_workloads.Runner.cycles;
               string_of_int (int_of_float r.Mm_workloads.Runner.ops_per_sec);
             ]
           | None -> [ name; (if pressure then "storm" else "idle"); "n/a"; "n/a"; "n/a" ])
         ext_reclaim_cells);
    Printf.printf
      "\nExpected: idle rows stay at TLB-hit cost on both protocols; the\n\
       storm rows move p99/p999 to swap-in cost, with adv's finer-grained\n\
       transactions keeping the concurrent-fault tail no worse than rw's.\n\n"
  in
  { Plan.cells; render }

(* -- ext-trace: workload-trace replay across every system (cell-based:
      one world per (profile, system); trace generation is seeded and
      deterministic, so each cell regenerates its own copy) -- *)

let ext_trace_systems =
  [
    Mm_workloads.System.Linux;
    Mm_workloads.System.Radixvm;
    Mm_workloads.System.Nros;
    Mm_workloads.System.Corten Config.rw;
    Mm_workloads.System.Corten Config.adv;
  ]

let ext_trace_profiles =
  [ Mm_workloads.Trace.Churn; Mm_workloads.Trace.Faults;
    Mm_workloads.Trace.Mixed ]

let ext_trace_plan () =
  let cells =
    List.concat_map
      (fun profile ->
        List.map
          (fun kind ->
            Plan.cell
              ~label:
                (Printf.sprintf "%s/%s"
                   (Mm_workloads.Trace.profile_name profile)
                   (Mm_workloads.System.kind_name kind))
              ~weight:8.0
              (fun () ->
                let t =
                  Mm_workloads.Trace.generate ~profile ~ncpus:8
                    ~ops_per_cpu:150 ~seed:42
                in
                let s = Mm_workloads.Trace.replay ~kind t in
                Some s.Mm_workloads.Trace.result))
          ext_trace_systems)
      ext_trace_profiles
  in
  let render celled =
    let take = Plan.taker celled in
    Printf.printf
      "## ext-trace — synthetic MM traces replayed on every system\n\
       The same operation stream (8 CPUs, 150 ops/CPU, region ids portable\n\
       across VA allocators) replayed everywhere; ops/s of whole-trace\n\
       throughput. Generate/replay your own with `mmrepro trace`.\n\n";
    let header =
      "profile" :: List.map Mm_workloads.System.kind_name ext_trace_systems
    in
    let rows =
      List.map
        (fun profile ->
          Mm_workloads.Trace.profile_name profile
          :: List.map (fun _kind -> Plan.fmt_tp (take ())) ext_trace_systems)
        ext_trace_profiles
    in
    Tablefmt.print ~header rows;
    Printf.printf
      "\nExpected: CortenMM leads on churn (map/unmap-heavy) and mixed;\n\
       the gap narrows on the fault-only profile.\n\n"
  in
  { Plan.cells; render }

(* -- ext-fleet: the fork_fleet serving mix across every system ×
      shootdown policy (cell-based: one open-loop serving world per
      (system, policy); the mix is seeded, so each cell is
      self-contained) -- *)

let ext_fleet_sessions = 600
let ext_fleet_cpus = 4

let ext_fleet_policies =
  [
    ("immediate", Mm_tlb.Tlb.Immediate);
    ("batched", Mm_serve.Serve.batched_default);
  ]

let ext_fleet_plan () =
  let cells =
    List.concat_map
      (fun kind ->
        List.map
          (fun (policy_name, policy) ->
            Plan.cell
              ~label:
                (Printf.sprintf "fleet/%s/%s"
                   (Mm_workloads.System.kind_name kind)
                   policy_name)
              ~weight:10.0
              (fun () ->
                let r =
                  Mm_serve.Serve.run
                    ~backend:(Mm_workloads.System.backend_of_kind kind)
                    ~mix:Mm_serve.Mix.fork_fleet ~policy_name ~policy
                    ~ncpus:ext_fleet_cpus ~sessions:ext_fleet_sessions
                    ~seed:42 ()
                in
                (* Open-loop arrivals pin the throughput, so the signal
                   is session latency: pack p50/p99 into a plain record
                   (the [of_cycles] convention — never registered, so
                   [bench --json] is unaffected). *)
                Some
                  {
                    Mm_workloads.Runner.ops =
                      r.Mm_serve.Serve.r_session.Mm_serve.Serve.s_p50;
                    cycles = r.Mm_serve.Serve.r_session.Mm_serve.Serve.s_p99;
                    ops_per_sec = 0.0;
                  }))
          ext_fleet_policies)
      ext_trace_systems
  in
  let render celled =
    let take = Plan.taker celled in
    let p50 = function Some r -> r.Mm_workloads.Runner.ops | None -> 0 in
    Printf.printf
      "## ext-fleet — process-fleet serving: fork / COW-break / exit\n\
       The fork_fleet mix forks every session off a long-lived per-CPU\n\
       parent, COW-breaks the inherited hot pages, runs one private burst\n\
       and exits (%d sessions, %d CPUs, open-loop arrivals). Session\n\
       latency in cycles, arrival to completion, per TLB-shootdown\n\
       policy; full SLO tables: `mmrepro serve --mix fork_fleet`.\n\n"
      ext_fleet_sessions ext_fleet_cpus;
    Tablefmt.print
      ~header:
        ("system"
        :: List.concat_map
             (fun (n, _) -> [ n ^ " p50"; n ^ " p99" ])
             ext_fleet_policies)
      (List.map
         (fun kind ->
           Mm_workloads.System.kind_name kind
           :: List.concat_map
                (fun _ ->
                  let r = take () in
                  [ string_of_int (p50 r); string_of_int (Plan.cycles r) ])
                ext_fleet_policies)
         ext_trace_systems);
    Printf.printf
      "\nExpected: the address-space clone dominates every session, so\n\
       linux's VMA-list fork leads while CortenMM pays its paper-admitted\n\
       worst case (full-PT-walk enumeration, cf. LMbench fork §6.2);\n\
       batching trims only the systems that broadcast shootdown IPIs.\n\n"
  in
  { Plan.cells; render }
