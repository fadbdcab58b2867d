(* Application experiments: Fig 15 (single-thread apps), Fig 16 (JVM
   thread creation + metis, with the two ablations), Fig 17 (dedup +
   psearchy under ptmalloc/tcmalloc), Fig 18 (allocator memory usage),
   Fig 21 (8-thread other-PARSEC).

   Each is a {!Plan}: one independent world per (app, system, cores,
   allocator) combination. *)

module Tablefmt = Mm_util.Tablefmt

(* Printed output goes through the capture-aware sink so parallel
   drivers can replay each experiment's stream in submission order. *)
module Printf = struct
  include Stdlib.Printf

  let printf fmt = Mm_util.Out.printf fmt
end

let print_newline = Mm_util.Out.print_newline
let _ = print_newline

module System = Mm_workloads.System
module Apps = Mm_workloads.Apps
module Alloc_model = Mm_workloads.Alloc_model

let corten_adv = System.Corten Cortenmm.Config.adv
let corten_rw = System.Corten Cortenmm.Config.rw
let adv_base = System.Corten Cortenmm.Config.adv_base
let adv_vpa = System.Corten Cortenmm.Config.adv_vpa

let core_sweep = [ 1; 4; 16; 64 ]

(* -- Fig 16: JVM thread creation (left) + metis (right) -- *)

let jvm_systems = [ System.Linux; corten_rw; adv_base; adv_vpa; corten_adv ]

let metis_systems =
  [ System.Linux; System.Radixvm; corten_rw; adv_base; adv_vpa; corten_adv ]

(* Every fig16 cell returns the one number its table cell shows: JVM
   thread-creation latency in cycles, or metis throughput in ops/s. *)
let fig16_plan () =
  let jvm_cells =
    List.concat_map
      (fun n ->
        List.map
          (fun kind ->
            Plan.cell
              ~label:
                (Printf.sprintf "jvm/t%d/%s" n (System.kind_name kind))
              ~weight:(float_of_int n)
              (fun () ->
                float_of_int (Apps.jvm_thread_creation ~kind ~nthreads:n ())))
          jvm_systems)
      core_sweep
  in
  let metis_cells =
    List.concat_map
      (fun n ->
        List.map
          (fun kind ->
            Plan.cell
              ~label:
                (Printf.sprintf "metis/c%d/%s" n (System.kind_name kind))
              ~weight:(float_of_int n)
              (fun () ->
                let r, _sys = Apps.metis ~kind ~ncpus:n () in
                r.Mm_workloads.Runner.ops_per_sec))
          metis_systems)
      core_sweep
  in
  let render take =
    Printf.printf
      "## Fig 16 (left) — JVM thread creation latency (cycles; lower is \
       better)\n\
       N threads each map a stack, guard it and first-touch its hot pages\n\
       (the Android app-startup pattern).\n\n";
    let header = "threads" :: List.map System.kind_name jvm_systems in
    let rows =
      List.map
        (fun n ->
          string_of_int n
          :: List.map (fun _kind -> Tablefmt.fmt_si (take ())) jvm_systems)
        core_sweep
    in
    Tablefmt.print ~header rows;
    Printf.printf
      "\nPaper: CortenMM (both) 32%% faster than Linux at 384 cores; Linux is\n\
       bottlenecked in the fault path on thread stacks.\n\n";
    Printf.printf
      "## Fig 16 (right) — metis map-reduce throughput (chunk ops/second)\n\
       Workers scan a shared input and allocate 8 MiB chunks, never freed\n\
       (the RadixVM paper's setup), plus the adv_base / adv_+vpa ablations.\n\n";
    let header = "cores" :: List.map System.kind_name metis_systems in
    let rows =
      List.map
        (fun n ->
          string_of_int n
          :: List.map (fun _kind -> Tablefmt.fmt_si (take ())) metis_systems)
        core_sweep
    in
    Tablefmt.print ~header rows;
    Printf.printf
      "\nPaper: adv 26x over Linux at 384 cores (rw 15x); ablations close to\n\
       adv since metis rarely mmaps; adv 1.24x over RadixVM at 128 cores.\n\n"
  in
  { Plan.cells = jvm_cells @ metis_cells; render }

(* -- Fig 17: dedup and psearchy with both allocators -- *)

let fig17_systems = [ System.Linux; corten_rw; corten_adv ]
let fig17_allocs = [ Alloc_model.Ptmalloc; Alloc_model.Tcmalloc ]

let fig17_cells ~name run =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun alloc ->
          List.map
            (fun kind ->
              Plan.cell
                ~label:
                  (Printf.sprintf "%s/c%d/%s/%s" name n (System.kind_name kind)
                     (Alloc_model.kind_name alloc))
                ~weight:(float_of_int n)
                (fun () ->
                  let r, _ = run ~kind ~alloc_kind:alloc ~ncpus:n in
                  Some r))
            fig17_systems)
        fig17_allocs)
    core_sweep

let fig17_render_one ~name take =
  Printf.printf "### %s\n" name;
  let header =
    "cores"
    :: List.concat_map
         (fun alloc ->
           List.map
             (fun k ->
               Printf.sprintf "%s/%s" (System.kind_name k)
                 (Alloc_model.kind_name alloc))
             fig17_systems)
         fig17_allocs
  in
  let rows =
    List.map
      (fun n ->
        string_of_int n
        :: List.concat_map
             (fun _alloc ->
               List.map (fun _kind -> Plan.fmt_tp (take ())) fig17_systems)
             fig17_allocs)
      core_sweep
  in
  Tablefmt.print ~header rows;
  print_newline ()

let fig17_plan () =
  let dedup_cells =
    fig17_cells ~name:"dedup" (fun ~kind ~alloc_kind ~ncpus ->
        Apps.dedup ~kind ~alloc_kind ~ncpus ())
  in
  let psearchy_cells =
    fig17_cells ~name:"psearchy" (fun ~kind ~alloc_kind ~ncpus ->
        Apps.psearchy ~kind ~alloc_kind ~ncpus ())
  in
  let render take =
    Printf.printf
      "## Fig 17 — dedup and psearchy throughput with ptmalloc vs tcmalloc\n\n";
    fig17_render_one ~name:"dedup" take;
    fig17_render_one ~name:"psearchy" take;
    Printf.printf
      "Paper: with ptmalloc Linux stops scaling at ~16 threads (dedup) —\n\
       frequent munmap contends on mmap_lock — while adv reaches 2.69x Linux;\n\
       tcmalloc hides the kernel bottleneck for both; psearchy ~2x at 64.\n\n"
  in
  { Plan.cells = dedup_cells @ psearchy_cells; render }

(* -- Fig 18: allocator memory usage (one world per (app, allocator);
      each cell returns the live system's memory statistics) -- *)

let fig18_apps =
  [
    ( "dedup",
      fun ~alloc_kind -> Apps.dedup ~kind:corten_adv ~alloc_kind ~ncpus:16 () );
    ( "psearchy",
      fun ~alloc_kind -> Apps.psearchy ~kind:corten_adv ~alloc_kind ~ncpus:16 ()
    );
  ]

let fig18_plan () =
  let cells =
    List.concat_map
      (fun (name, run) ->
        List.map
          (fun alloc ->
            Plan.cell
              ~label:(Printf.sprintf "%s/%s" name (Alloc_model.kind_name alloc))
              ~weight:16.0
              (fun () -> System.mem_stats (snd (run ~alloc_kind:alloc))))
          fig17_allocs)
      fig18_apps
  in
  let render take =
    Printf.printf
      "## Fig 18 — resident memory: tcmalloc vs the default allocator\n\
       Bytes held after the dedup / psearchy runs (16 cores, CortenMM_adv).\n\n";
    let rows =
      List.concat_map
        (fun (name, _) ->
          List.map
            (fun alloc ->
              let (m : System.mem_stats) = take () in
              [
                name;
                Alloc_model.kind_name alloc;
                Tablefmt.fmt_bytes m.System.resident_bytes;
                Tablefmt.fmt_bytes m.System.peak_resident_bytes;
                Tablefmt.fmt_bytes m.System.pt_bytes;
              ])
            fig17_allocs)
        fig18_apps
    in
    Tablefmt.print
      ~header:[ "app"; "allocator"; "resident after run"; "peak"; "page tables" ]
      rows;
    Printf.printf
      "\nPaper: tcmalloc's speed costs ~2x resident memory — it rarely returns\n\
       freed pages to the OS, so its resident set stays at the high-water\n\
       mark while ptmalloc's drops back after every free.\n\n"
  in
  { Plan.cells; render }

(* -- Fig 15 / Fig 21: PARSEC-class compute workloads -- *)

let parsec_systems = [ corten_rw; corten_adv ]

let parsec_cells ~ncpus =
  List.concat_map
    (fun p ->
      Plan.cell
        ~label:(Printf.sprintf "%s/c%d/linux" p.Apps.p_name ncpus)
        ~weight:(float_of_int ncpus)
        (fun () -> Some (Apps.run_parsec ~kind:System.Linux ~ncpus p))
      :: List.map
           (fun kind ->
             Plan.cell
               ~label:
                 (Printf.sprintf "%s/c%d/%s" p.Apps.p_name ncpus
                    (System.kind_name kind))
               ~weight:(float_of_int ncpus)
               (fun () -> Some (Apps.run_parsec ~kind ~ncpus p)))
           parsec_systems)
    Apps.parsec_others

let parsec_render take =
  let header =
    "benchmark" :: "linux (ops/s)"
    :: List.map (fun k -> System.kind_name k ^ " (norm.)") parsec_systems
  in
  let rows =
    List.map
      (fun p ->
        let linux = Plan.tp (take ()) in
        p.Apps.p_name
        :: Tablefmt.fmt_si linux
        :: List.map
             (fun _kind -> Printf.sprintf "%.3f" (Plan.tp (take ()) /. linux))
             parsec_systems)
      Apps.parsec_others
  in
  Tablefmt.print ~header rows

let fig15_plan () =
  let render take =
    Printf.printf
      "## Fig 15 — single-threaded real-world applications (normalized to \
       Linux)\n\
       Compute-dominated PARSEC workloads; MM is not on their critical path.\n\n";
    parsec_render take;
    Printf.printf
      "\nPaper: CortenMM within noise of Linux on every non-MM-bound PARSEC\n\
       benchmark (no regression).\n\n"
  in
  { Plan.cells = parsec_cells ~ncpus:1; render }

let fig21_plan () =
  let render take =
    Printf.printf
      "## Fig 21 — 8-threaded other-PARSEC workloads (normalized to Linux)\n\n";
    parsec_render take;
    Printf.printf
      "\nPaper: parity with Linux (CortenMM adds no overhead when MM is not\n\
       the bottleneck).\n\n"
  in
  { Plan.cells = parsec_cells ~ncpus:8; render }
