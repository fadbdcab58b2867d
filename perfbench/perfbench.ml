(* One workload of the repository benchmark, in one process on one
   domain. perfbench/run.py builds this executable, samples its set-up
   time from outside and prints the benchmark's result line; NOTES.md
   beside this file gives the workloads and the layer -> metric map.

     perfbench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
                   [--setup-only]

   stdout carries a line "READY" just before the first timed call (where
   the runner's set-up samples end) and, last, one JSON object with the
   keys correct, attempted, failed and metrics (all but setup_s, which
   the runner measures). Diagnostics and the summary go to stderr.

   Every number is taken from outside the library: this program times
   its own calls into each layer (host CPU seconds, GC words), reads the
   simulated results those calls return, and in the traced pass
   (--trace 1) reads the counters the layers already register. *)

module System = Mm_workloads.System
module Registry = System.Registry
module Runner = Mm_workloads.Runner
module Micro = Mm_workloads.Micro
module Trace = Mm_workloads.Trace
module Diff = Mm_workloads.Diff
module Serve = Mm_serve.Serve
module Mix = Mm_serve.Mix
module Metrics = Mm_obs.Metrics
module Contention = Mm_obs.Contention

let systems = Registry.names
let session_systems = [ "linux"; "cortenmm-rw"; "cortenmm-adv" ]
let protos = [ "cortenmm-rw"; "cortenmm-adv" ]

(* Host seconds are CPU seconds of this process (user + system): the
   benchmark runs on one domain, so they equal wall time on an idle
   machine and do not count time the process spent descheduled. *)
let cpu_now = Sys.time

let mb_of_words w = w *. float (Sys.word_size / 8) /. 1048576.

(* A cell that raises has no latency: its sessions miss every latency
   limit. A percentile that lands on them, or a per-op mean with no
   completed op, reads as this ceiling. *)
let failed_cycles = 1e18

(* -- Cells -- *)

type kind = K_micro | K_replay | K_serve | K_diff

(* The simulated result of one completed cell; it repeats bit for bit. *)
type outcome =
  | Micro_r of { ncpus : int; r : Runner.result }
  | Replay_r of { ncpus : int; r : Runner.result }
  | Serve_r of Serve.report
  | Diff_r of (int, string) result  (* ops checked, or the divergence *)

type cell = {
  label : string;
  kind : kind;
  sys : string;  (* registry name; "all" for the cross-backend oracle *)
  policy : string;  (* serve cells only *)
  attempts : int;  (* ops or sessions a raise of this cell counts failed *)
  run : unit -> outcome;
}

type res = {
  cell : cell;
  out : (outcome, string) result;  (* Error: the exception text *)
  host_s : float;
  major_words : float;
  lock_wait : int;  (* traced pass: serialized cycles over all locks *)
  top_lock : (string * int) option;  (* traced pass: most-waited lock *)
}

let exec c =
  Runner.reset_world_state ();
  (* Under a tracing session the reset above keeps the registries; reset
     the contention table (and its lock-id counter) anyway, so lock ids
     match the untraced pass and lock waits are this cell's alone. *)
  if Mm_obs.Trace.on () then Contention.reset ();
  let g0 = (Gc.quick_stat ()).Gc.major_words in
  let t0 = cpu_now () in
  let out =
    match c.run () with
    | o -> Ok o
    | exception e ->
      let msg = Printexc.to_string e in
      Printf.eprintf "perfbench: cell %s raised: %s\n%!" c.label msg;
      Error msg
  in
  let host_s = cpu_now () -. t0 in
  let major_words = (Gc.quick_stat ()).Gc.major_words -. g0 in
  let ranked = if Mm_obs.Trace.on () then Contention.ranked () else [] in
  let lock_wait =
    List.fold_left (fun a (e : Contention.entry) -> a + e.wait_cycles) 0 ranked
  in
  let top_lock =
    match ranked with
    | e :: _ -> Some (e.Contention.name, e.Contention.wait_cycles)
    | [] -> None
  in
  if Result.is_error out then Runner.reset_world_state ();
  { cell = c; out; host_s; major_words; lock_wait; top_lock }

let micro_cores = [ 1; 4; 8 ]
let micro_iters = 50
let serve_cpus = 8

let micro_cells () =
  List.concat_map
    (fun (e : Registry.entry) ->
      List.concat_map
        (fun bench ->
          if not (Micro.supported e.Registry.r_kind bench) then []
          else
            List.concat_map
              (fun contention ->
                List.map
                  (fun ncpus ->
                    {
                      label =
                        Printf.sprintf "%s/%s/%s/c%d" e.Registry.r_name
                          (Micro.bench_name bench)
                          (Micro.contention_name contention) ncpus;
                      kind = K_micro;
                      sys = e.Registry.r_name;
                      policy = "";
                      attempts = ncpus * micro_iters;
                      run =
                        (fun () ->
                          match
                            Micro.run ~kind:e.Registry.r_kind ~ncpus ~bench
                              ~contention ~iters:micro_iters ()
                          with
                          | Some r -> Micro_r { ncpus; r }
                          | None -> failwith "Micro.run: unsupported cell");
                    })
                  micro_cores)
              [ Micro.Low; Micro.High ])
        Micro.all_benches)
    Registry.all

(* The simulated inputs are fixed (seed 42); the run's --seed is only
   recorded. Every simulated metric is an exact function of its inputs,
   so varying them between runs turns input sensitivity into spread:
   serve's session percentiles are log2-bucket bounds that jump a whole
   bucket between schedules (serve-mixed, linux p50: 16.8M cycles on 2
   seeds of 10, 33.6M on the rest), and the oracle's checking cost follows
   its trace (host throughput spread 21% over five traces, against 7.5%
   on fixed inputs). Micro.run fixes its own schedules the same way. *)
let input_seed = 42

let serve_cells ~mix ~policies ~sessions =
  List.concat_map
    (fun (e : Registry.entry) ->
      List.map
        (fun (policy_name, policy) ->
          {
            label =
              Printf.sprintf "%s/%s/%s" mix.Mix.name e.Registry.r_name
                policy_name;
            kind = K_serve;
            sys = e.Registry.r_name;
            policy = policy_name;
            attempts = sessions;
            run =
              (fun () ->
                Serve_r
                  (Serve.run ~backend:e.Registry.r_backend ~mix ~policy_name
                     ~policy ~ncpus:serve_cpus ~sessions ~seed:input_seed ()));
          })
        policies)
    Registry.all

let oracle_cells (trace : Trace.t) =
  let n = Array.length trace.Trace.entries in
  List.map
    (fun (e : Registry.entry) ->
      {
        label = "replay/" ^ e.Registry.r_name;
        kind = K_replay;
        sys = e.Registry.r_name;
        policy = "";
        attempts = n;
        run =
          (fun () ->
            let s = Trace.replay ~kind:e.Registry.r_kind trace in
            Replay_r { ncpus = trace.Trace.ncpus; r = s.Trace.result });
      })
    Registry.all
  @ [
      {
        label = "diff";
        kind = K_diff;
        sys = "all";
        policy = "";
        attempts = n;
        run =
          (fun () -> Diff_r (Result.map_error Diff.describe (Diff.run trace)));
      };
    ]

(* A workload's set-up: everything before its first timed call. The
   oracle's includes generating its trace, timed on its own. *)
type setup = { cells : cell list; generate_s : float; trace_len : int }

let serve_setup ~mix ~policies ~sessions () =
  { cells = serve_cells ~mix ~policies ~sessions; generate_s = 0.; trace_len = 0 }

let immediate = List.filter (fun (n, _) -> n = "immediate") Serve.policies

let workloads =
  [
    ( "micro-scale",
      fun () -> { cells = micro_cells (); generate_s = 0.; trace_len = 0 } );
    ( "serve-mixed",
      serve_setup ~mix:Mix.mixed ~policies:Serve.policies ~sessions:20_000 );
    ( "serve-fork",
      serve_setup ~mix:Mix.fork_fleet ~policies:immediate ~sessions:4_000 );
    ( "serve-reclaim",
      serve_setup ~mix:Mix.reclaim_storm ~policies:Serve.policies
        ~sessions:20_000 );
    ( "oracle-replay",
      fun () ->
        let t0 = cpu_now () in
        let trace =
          Trace.generate ~profile:Trace.Mixed ~ncpus:4 ~ops_per_cpu:2000
            ~seed:input_seed
        in
        let generate_s = cpu_now () -. t0 in
        {
          cells = oracle_cells trace;
          generate_s;
          trace_len = Array.length trace.Trace.entries;
        } );
  ]

(* -- Passes -- *)

let sumf f l = List.fold_left (fun a x -> a +. f x) 0. l
let sumi f l = List.fold_left (fun a x -> a + f x) 0 l
let host rs = sumf (fun r -> r.host_s) rs

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
      Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Rounds of the whole cell list for about [seconds]: at least two, as
   host speed drifts by 10-30% between ten-second windows on a shared
   host, and another while it is expected to end nearer [seconds] than
   the time spent so far. Returns the rounds in order and the peak RSS
   (MB) as the first round left it: how many rounds fit depends on the
   machine's speed, and later rounds can raise the peak a little. *)
let untraced_rounds ~seconds cells =
  let round () =
    (* Start on a collected heap, not paying for earlier garbage. *)
    Gc.full_major ();
    List.map exec cells
  in
  let first = round () in
  let peak_rss = vm_hwm_mb () in
  let rec more acc =
    let spent = sumf host acc in
    if spent +. (spent /. float (List.length acc) /. 2.) < seconds then
      more (round () :: acc)
    else List.rev acc
  in
  (more [ round (); first ], peak_rss)

type hstat = { samples : int; total : int; p99 : int }

(* The registry as a traced group of cells left it. *)
type snap = {
  group : string;
  counters : (string * int) list;
  hists : (string * hstat) list;
}

(* The cells of one system run under one tracing session, so the
   registry's counters and histograms attribute to that system. Cells are
   listed system by system, so the order matches the untraced pass. *)
let traced_pass cells =
  let rec groups = function
    | [] -> []
    | c :: _ as l ->
      let mine = List.filter (fun c' -> c'.sys = c.sys) l in
      let rest = List.filter (fun c' -> c'.sys <> c.sys) l in
      (c.sys, mine) :: groups rest
  in
  let per_group =
    List.map
      (fun (group, cs) ->
        Mm_obs.Trace.start ();
        let rs = List.map exec cs in
        let snap =
          {
            group;
            counters = Metrics.counters ();
            hists =
              List.map
                (fun (n, h) ->
                  ( n,
                    {
                      samples = Metrics.samples h;
                      total = Metrics.total h;
                      p99 = Metrics.quantile h 0.99;
                    } ))
                (Metrics.histograms ());
          }
        in
        ignore (Mm_obs.Trace.stop ());
        (rs, snap))
      (groups cells)
  in
  (List.concat_map fst per_group, List.map snd per_group)

(* -- Correctness -- *)

let outs rs = List.map (fun r -> (r.cell.label, r.out)) rs

let checks ~trace_len rs =
  let bad = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  List.iter
    (fun r ->
      match r.out with
      | Ok (Micro_r { ncpus; r = m }) ->
        if m.Runner.ops <> ncpus * micro_iters then
          fail "%s: %d ops, expected %d" r.cell.label m.Runner.ops
            (ncpus * micro_iters)
      | Ok (Diff_r (Ok n)) ->
        if n <> trace_len then
          fail "%s: checked %d ops of a %d-op trace" r.cell.label n trace_len
      | Ok (Diff_r (Error d)) -> fail "%s: divergence: %s" r.cell.label d
      | Ok (Replay_r _ | Serve_r _) | Error _ -> ())
    rs;
  (* The shootdown policy changes latencies, never the work done. *)
  List.iter
    (fun sys ->
      let ops =
        List.filter_map
          (fun r ->
            match r.out with
            | Ok (Serve_r s) when r.cell.sys = sys ->
              Some (r.cell.policy, s.Serve.r_ops)
            | _ -> None)
          rs
      in
      match ops with
      | (p1, o1) :: rest ->
        List.iter
          (fun (p, o) ->
            if o <> o1 then
              fail "serve %s: %d ops under %s but %d under %s" sys o1 p1 o p)
          rest
      | [] -> ())
    systems;
  List.rev !bad

(* -- Metrics -- *)

let sim_ops r =
  match r.out with
  | Ok (Micro_r { r = m; _ }) | Ok (Replay_r { r = m; _ }) -> m.Runner.ops
  | Ok (Serve_r s) -> s.Serve.r_ops
  | Ok (Diff_r (Ok n)) -> n * List.length Registry.all
  | Ok (Diff_r (Error _)) | Error _ -> 0

let of_sys sys rs = List.filter (fun r -> r.cell.sys = sys) rs
let of_kind k rs = List.filter (fun r -> r.cell.kind = k) rs

let serve_phases (s : Serve.report) =
  Serve.[ s.r_mmap; s.r_fault; s.r_mprotect; s.r_munmap; s.r_fork ]

(* Closed loop: sum (measured cycles x ncpus) / sum ops. Serve: the
   count-weighted mean over the op phases. *)
let cycles_per_op rs sys =
  let num, den =
    List.fold_left
      (fun (num, den) r ->
        match r.out with
        | Ok (Micro_r { ncpus; r = m }) | Ok (Replay_r { ncpus; r = m }) ->
          (num +. float (m.Runner.cycles * ncpus), den + m.Runner.ops)
        | Ok (Serve_r s) ->
          List.fold_left
            (fun (num, den) (p : Serve.phase_stats) ->
              (num +. (float p.s_count *. p.s_mean), den + p.s_count))
            (num, den) (serve_phases s)
        | Ok (Diff_r _) | Error _ -> (num, den))
      (0., 0) (of_sys sys rs)
  in
  if den = 0 then failed_cycles else num /. float den

let nearest_rank q sorted =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

(* Session latency. Serve: the cell's log2-bucket bound (see
   Serve.phase_stats), worst over the system's policy cells. Closed-loop
   workloads: a session is one cell's batch — its ops arrive at the
   barrier and it completes with the last one — and the value is the
   exact nearest-rank percentile over the system's cells. Returns the
   value and what it is drawn from. *)
let session_pct rs sys q =
  let mine = of_sys sys rs in
  if List.exists (fun r -> r.cell.kind = K_serve) mine then
    let worst, sessions =
      List.fold_left
        (fun (w, n) r ->
          match r.out with
          | Ok (Serve_r s) ->
            let st = s.Serve.r_session in
            let v = if q = 0.5 then st.s_p50 else st.s_p99 in
            (Float.max w (float v), n + st.s_count)
          | Error _ -> (failed_cycles, n)
          | Ok (Micro_r _ | Replay_r _ | Diff_r _) -> (w, n))
        (0., 0) mine
    in
    ( worst,
      Printf.sprintf "log2-bucket bound, worst of %d policy cells, %d sessions"
        (List.length mine) sessions )
  else
    let batches =
      List.filter_map
        (fun r ->
          match r.out with
          | Ok (Micro_r { r = m; _ }) | Ok (Replay_r { r = m; _ }) ->
            Some (float m.Runner.cycles)
          | Error _ -> Some failed_cycles
          | Ok (Serve_r _ | Diff_r _) -> None)
        mine
      |> Array.of_list
    in
    Array.sort compare batches;
    if batches = [||] then (failed_cycles, "no cells")
    else
      ( nearest_rank q batches,
        Printf.sprintf "exact, nearest rank over %d closed-loop cells"
          (Array.length batches) )

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let attempted_failed rs =
  ( sumi (fun r -> r.cell.attempts) rs,
    sumi (fun r -> if Result.is_error r.out then r.cell.attempts else 0) rs )

let end_to_end ~rounds ~peak_rss =
  let all = List.concat rounds in
  let r1 = List.hd rounds in
  let attempted, failed = attempted_failed all in
  let sessions =
    List.concat_map
      (fun s ->
        List.map
          (fun (tag, q) ->
            let name = Printf.sprintf "sim_session_%s_cycles.%s" tag s in
            let v, what = session_pct r1 s q in
            Printf.eprintf "  %s = %.0f (%s)\n" name v what;
            m name "sim_cycles" v)
          [ ("p50", 0.5); ("p99", 0.99) ])
      session_systems
  in
  [
    m "sim_ops_per_host_s" "ops/s" (float (sumi sim_ops all) /. host all);
    m "peak_rss_mb" "MB" peak_rss;
    m "ok_share" "ratio" (1. -. (float failed /. float attempted));
  ]
  @ List.map
      (fun s -> m ("sim_cycles_per_op." ^ s) "sim_cycles" (cycles_per_op r1 s))
      systems
  @ sessions

(* -- Direct layer probes -- *)

(* Nanoseconds per call of [f]: a batch grown to at least 20 ms of CPU
   time, then the median of five such batches. *)
let probe f =
  let batch k =
    let t0 = cpu_now () in
    for _ = 1 to k do
      f ()
    done;
    cpu_now () -. t0
  in
  let rec size k = if k >= 1 lsl 24 || batch k >= 0.02 then k else size (2 * k) in
  let k = size 1 in
  let xs = List.init 5 (fun _ -> batch k *. 1e9 /. float k) in
  List.nth (List.sort compare xs) 2

(* The calls bench/main.ml's Bechamel suite times, one per layer. *)
let probes () =
  let isa = Mm_hal.Isa.x86_64 in
  let rw = Mm_hal.Perm.rw in
  let pte_roundtrip () =
    let pte = Mm_hal.Pte.leaf ~pfn:0x1234 ~perm:rw () in
    ignore
      (Sys.opaque_identity
         (Mm_hal.Isa.decode isa ~level:1 (Mm_hal.Isa.encode isa ~level:1 pte)))
  in
  let buddy_cycle =
    let b = Mm_phys.Buddy.create ~nframes:(1 lsl 24) in
    fun () ->
      let pfn = Mm_phys.Buddy.alloc b ~order:0 in
      Mm_phys.Buddy.free b ~pfn ~order:0
  in
  let slab_cycle =
    let c =
      Mm_phys.Slab.create (Mm_phys.Phys.create ()) ~name:"probe" ~obj_size:200
    in
    fun () -> Mm_phys.Slab.free c (Mm_phys.Slab.alloc c)
  in
  let pt_walk_set_clear =
    let pt = Mm_pt.Pt.create (Mm_phys.Phys.create ()) isa in
    let vaddr = ref 0x1000_0000 in
    fun () ->
      let node = Mm_pt.Pt.walk_create pt ~to_level:1 !vaddr in
      let idx = Mm_pt.Pt.index pt ~level:1 ~vaddr:!vaddr in
      Mm_pt.Pt.set pt node idx (Mm_hal.Pte.leaf ~pfn:1 ~perm:rw ());
      Mm_pt.Pt.set pt node idx Mm_hal.Pte.Absent;
      vaddr := !vaddr + 4096
  in
  let vma_find =
    let t = Mm_linux.Vma.create (Mm_phys.Phys.create ()) in
    for i = 0 to 99 do
      let start = 0x1000_0000 + (i * 0x10000) in
      ignore (Mm_linux.Vma.insert t ~start ~end_:(start + 0x8000) ~perm:rw)
    done;
    fun () -> ignore (Sys.opaque_identity (Mm_linux.Vma.find t 0x1000_4000))
  in
  let maple_cycle =
    let t = Mm_linux.Vma.create (Mm_phys.Phys.create ()) in
    let next = ref 0x1000_0000 in
    fun () ->
      let s = !next in
      next := s + 0x10000;
      ignore (Mm_linux.Vma.insert t ~start:s ~end_:(s + 0x8000) ~perm:rw);
      ignore (Sys.opaque_identity (Mm_linux.Vma.find t (s + 0x4000)));
      Mm_linux.Vma.remove_node t s
  in
  let mmap_touch_munmap () =
    let w = Mm_sim.Engine.create ~ncpus:1 in
    Mm_sim.Engine.spawn w ~cpu:0 (fun () ->
        let kernel = Cortenmm.Kernel.create ~ncpus:1 () in
        let asp = Cortenmm.Addr_space.create kernel Cortenmm.Config.adv in
        match Cortenmm.Mm.mmap_r asp ~len:16384 ~perm:rw () with
        | Ok a ->
          Cortenmm.Mm.touch_range asp ~addr:a ~len:16384 ~write:true;
          ignore (Cortenmm.Mm.munmap_r asp ~addr:a ~len:16384)
        | Error e -> raise (Mm_hal.Errno.Error e));
    Mm_sim.Engine.run w
  in
  let rw_check () =
    let tree = Mm_verif.Tree.create ~arity:2 ~depth:3 in
    ignore
      (Sys.opaque_identity
         (Mm_verif.Rw_model.check ~tree ~targets:[| 1; 3 |] ()))
  in
  List.map
    (fun (name, f) -> m name "ns" (probe f))
    [
      ("hal.pte_roundtrip_ns", pte_roundtrip);
      ("phys.buddy_cycle_ns", buddy_cycle);
      ("phys.slab_cycle_ns", slab_cycle);
      ("pt.walk_set_clear_ns", pt_walk_set_clear);
      ("linux_mm.vma_find_ns", vma_find);
      ("linux_mm.maple_cycle_ns", maple_cycle);
      ("core.mmap_touch_munmap_ns", mmap_touch_munmap);
      ("verif.rw_check_ns", rw_check);
    ]

(* -- Per-layer metrics (the traced run) -- *)

let in_group group s = Option.fold ~none:true ~some:(String.equal s.group) group

let counter snaps ?group name =
  sumi
    (fun s ->
      if in_group group s then
        Option.value ~default:0 (List.assoc_opt name s.counters)
      else 0)
    snaps

let hist snaps ?group name =
  List.filter_map
    (fun s -> if in_group group s then List.assoc_opt name s.hists else None)
    snaps

let ratio a b = if b = 0. then 0. else a /. b
let hist_samples hs = sumi (fun h -> h.samples) hs

let hist_mean hs =
  ratio (float (sumi (fun h -> h.total) hs)) (float (hist_samples hs))

let hist_p99 hs = float (List.fold_left (fun a h -> max a h.p99) 0 hs)

let argmax f rs =
  List.fold_left
    (fun acc r -> match acc with Some a when f a >= f r -> acc | _ -> Some r)
    None rs

let per_layer ~(setup : setup) ~untraced ~traced ~snaps ~gc0 ~gc1 ~overhead =
  let micro = of_kind K_micro untraced in
  let replays = of_kind K_replay untraced in
  let diff = of_kind K_diff untraced in
  let serve = of_kind K_serve untraced in
  let mb r = mb_of_words r.major_words in
  let max_cell name unit_ f =
    match argmax f micro with
    | Some r ->
      Printf.eprintf "  %s = %g (%s)\n" name (f r) r.cell.label;
      m name unit_ (f r)
    | None -> m name unit_ 0.
  in
  let serve_ok sys =
    List.filter_map
      (fun r -> match r.out with Ok (Serve_r s) -> Some s | _ -> None)
      (of_sys sys serve)
  in
  let weighted sys field =
    let ps = List.map field (serve_ok sys) in
    ratio
      (sumf (fun (p : Serve.phase_stats) -> float p.s_count *. p.s_mean) ps)
      (float (sumi (fun (p : Serve.phase_stats) -> p.s_count) ps))
  in
  let per_sys prefix unit_ f =
    List.map (fun s -> m (prefix ^ "." ^ s) unit_ (f s)) systems
  in
  let top_wait =
    match
      Option.bind
        (argmax (fun r -> Option.fold ~none:0 ~some:snd r.top_lock) traced)
        (fun r -> r.top_lock)
    with
    | Some (name, w) ->
      Printf.eprintf "  sim.top_lock_wait_cycles = %d (%s)\n" w name;
      w
    | None -> 0
  in
  let c name = float (counter snaps name) in
  let attempted, failed = attempted_failed untraced in
  List.concat
    [
      per_sys "micro.host_s" "s" (fun s -> host (of_sys s micro));
      per_sys "micro.major_mb" "MB" (fun s -> sumf mb (of_sys s micro));
      [
        max_cell "micro.max_cell_host_s" "s" (fun r -> r.host_s);
        max_cell "micro.max_cell_major_mb" "MB" mb;
        m "diff.host_s" "s" (host diff);
        m "diff.self_host_s" "s"
          (if diff = [] then 0. else host diff -. host replays);
        m "diff.major_mb" "MB" (sumf mb diff);
        m "trace.generate_host_s" "s" setup.generate_s;
      ];
      per_sys "trace.replay_host_s" "s" (fun s -> host (of_sys s replays));
      per_sys "serve.host_s" "s" (fun s -> host (of_sys s serve));
      per_sys "serve.session_mean_cycles" "sim_cycles" (fun s ->
          weighted s (fun r -> r.Serve.r_session));
      List.concat_map
        (fun (phase, field) ->
          per_sys
            (Printf.sprintf "serve.%s_mean_cycles" phase)
            "sim_cycles"
            (fun s -> weighted s field))
        Serve.
          [
            ("mmap", fun r -> r.r_mmap);
            ("fault", fun r -> r.r_fault);
            ("mprotect", fun r -> r.r_mprotect);
            ("munmap", fun r -> r.r_munmap);
            ("fork", fun r -> r.r_fork);
          ];
      per_sys "serve.ipis" "count" (fun s ->
          float (sumi (fun r -> r.Serve.r_ipis) (serve_ok s)));
      per_sys "serve.worst_stall_cycles" "sim_cycles" (fun s ->
          float
            (List.fold_left
               (fun a r -> max a r.Serve.r_worst_stall)
               0 (serve_ok s)));
      per_sys "sim.lock_wait_cycles" "sim_cycles" (fun s ->
          float (sumi (fun r -> r.lock_wait) (of_sys s traced)));
      [
        m "sim.top_lock_wait_cycles" "sim_cycles" (float top_wait);
        m "sim.rcu_deferred" "count" (c "rcu.deferred");
        m "phys.frame_allocs" "count" (c "phys.frame_allocs");
        m "phys.frame_frees" "count" (c "phys.frame_frees");
        m "phys.buddy_splits" "count" (c "buddy.splits");
        m "phys.buddy_merges" "count" (c "buddy.merges");
        m "phys.frame_allocs_per_op" "ratio"
          (ratio (c "phys.frame_allocs") (float (sumi sim_ops traced)));
      ];
      List.concat_map
        (fun p ->
          let h name = hist snaps ~group:p name in
          let cursor = h "cursor.lock_cycles" in
          [
            m ("core.cursor_lock_cycles." ^ p) "sim_cycles"
              (float (sumi (fun h -> h.total) cursor));
            m ("core.fault_cycles_mean." ^ p) "sim_cycles"
              (hist_mean (h "fault.cycles"));
            m ("core.fault_cycles_p99." ^ p) "sim_cycles"
              (hist_p99 (h "fault.cycles"));
          ])
        protos;
      [
        m "core.stale_retry_ratio" "ratio"
          (ratio
             (float
                (counter snaps ~group:"cortenmm-adv" "addr_space.stale_retries"))
             (float
                (hist_samples
                   (hist snaps ~group:"cortenmm-adv" "cursor.lock_cycles"))));
        m "core.pt_splits" "count" (c "addr_space.pt_splits");
        m "core.pt_pages_freed" "count" (c "addr_space.pt_pages_freed");
        m "core.pageoutd_wakeups" "count" (c "pageoutd.wakeups");
        m "core.swapd_scanned" "count" (c "swapd.scanned");
        m "core.swapd_second_chances" "count" (c "swapd.second_chances");
        m "core.swapd_swapped" "count" (c "swapd.swapped");
        m "tlb.shootdowns" "count" (c "tlb.shootdowns");
        m "tlb.shootdown_fanout_mean" "count"
          (hist_mean (hist snaps "tlb.shootdown_fanout"));
        m "tlb.batch_flushes" "count" (c "tlb.batch_flushes");
        m "tlb.batch_stall_cycles_p99" "sim_cycles"
          (hist_p99 (hist snaps "tlb.batch_stall_cycles"));
        m "tlb.latr_drained" "count" (c "tlb.latr_drained");
      ];
      probes ();
      [
        m "gc.major_collections" "count"
          (float (gc1.Gc.major_collections - gc0.Gc.major_collections));
        m "gc.top_heap_mb" "MB" (mb_of_words (float gc1.Gc.top_heap_words));
        m "trace_overhead_share" "ratio" overhead;
        m "failed_share" "ratio" (ratio (float failed) (float attempted));
      ];
    ]

(* -- Main -- *)

let print_result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
              (num x.value) x.unit_)
          metrics))

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10. in
  let trace = ref 0 and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " run seed, recorded (default 42)");
      ("--seconds", Arg.Set_float seconds, " measuring time (default 10)");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--setup-only", Arg.Set setup_only, " stop after set-up");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]";
  let make_setup =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (valid: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 20; space_overhead = 300 };
  let setup = make_setup () in
  print_endline "READY";
  if !setup_only then exit 0;
  let trace_len = setup.trace_len in
  let report bad =
    List.iter (Printf.eprintf "perfbench: CHECK FAILED: %s\n") bad;
    bad = []
  in
  let correct, (attempted, failed), metrics =
    if !trace = 0 then begin
      let rounds, peak_rss = untraced_rounds ~seconds:!seconds setup.cells in
      let r1 = List.hd rounds in
      let repeat_ok = List.for_all (fun rs -> outs rs = outs r1) rounds in
      let correct =
        report
          (checks ~trace_len r1
          @ if repeat_ok then []
            else [ "a repeated round's simulated results differ" ])
      in
      Printf.eprintf "perfbench: %s seed %d: %d round(s)\n" !workload !seed
        (List.length rounds);
      List.iter
        (fun rs ->
          Printf.eprintf "  round: %.0f sim ops per host s\n"
            (float (sumi sim_ops rs) /. host rs))
        rounds;
      (correct, attempted_failed (List.concat rounds), end_to_end ~rounds ~peak_rss)
    end
    else begin
      let gc0 = Gc.quick_stat () in
      let untraced = List.map exec setup.cells in
      let gc1 = Gc.quick_stat () in
      let traced, snaps = traced_pass setup.cells in
      (* A second untraced pass after the traced one: the first pays for
         growing the heap, so the overhead compares against both. *)
      let untraced2 = List.map exec setup.cells in
      let correct =
        report
          (checks ~trace_len untraced
          @
          if outs traced = outs untraced && outs untraced2 = outs untraced
          then []
          else [ "simulated results differ between traced and untraced runs" ])
      in
      let overhead =
        (2. *. host traced /. (host untraced +. host untraced2)) -. 1.
      in
      ( correct,
        attempted_failed (untraced @ traced @ untraced2),
        per_layer ~setup ~untraced ~traced ~snaps ~gc0 ~gc1 ~overhead )
    end
  in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1
