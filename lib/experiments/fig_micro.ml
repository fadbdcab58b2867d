(* Microbenchmark experiments: Fig 1 (motivation), Fig 13 (single-thread),
   Fig 14 (multithread sweeps), Fig 19 (RISC-V). Each prints the same
   rows/series the paper reports; EXPERIMENTS.md records paper-vs-measured.

   All four are cell-based ({!Plan}): every (system, bench, contention,
   cores) combination is one independent single-fiber world declared as a
   cell, and the table formatting lives in a pure render — which is what
   lets `bench -j N` parallelize *inside* fig14's 350-world sweep instead
   of serializing behind it. *)

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
module Micro = Mm_workloads.Micro

let corten_adv = System.Corten Cortenmm.Config.adv
let corten_rw = System.Corten Cortenmm.Config.rw

let all_systems =
  [ System.Linux; System.Radixvm; System.Nros; corten_rw; corten_adv ]

let core_sweep = [ 1; 2; 4; 8; 16; 32; 64 ]

let iters_single = 200
let iters_multi = 50

let micro_cell ~isa ~kind ~ncpus ~bench ~contention ~iters =
  Plan.cell
    ~label:
      (Printf.sprintf "%s/%s/c%d/%s"
         (Micro.contention_name contention)
         (Micro.bench_name bench) ncpus (System.kind_name kind))
    ~weight:(float_of_int (ncpus * iters))
    (fun () -> Micro.run ~isa ~kind ~ncpus ~bench ~contention ~iters ())

(* -- Fig 13: single-threaded throughput of the five microbenchmarks -- *)

let fig13_plan ?(isa = Mm_hal.Isa.x86_64) () =
  let cells =
    List.concat_map
      (fun bench ->
        List.map
          (fun kind ->
            micro_cell ~isa ~kind ~ncpus:1 ~bench ~contention:Micro.Low
              ~iters:iters_single)
          all_systems)
      Micro.all_benches
  in
  let render take =
    Printf.printf
      "## Fig 13 — single-threaded microbenchmark throughput (%s)\n\
       ops/second of the Table 3 microbenchmarks, 1 core.\n\n"
      isa.Mm_hal.Isa.name;
    let results =
      List.map
        (fun bench ->
          (bench, List.map (fun kind -> (kind, take ())) all_systems))
        Micro.all_benches
    in
    let header =
      "bench" :: List.map (fun k -> System.kind_name k) all_systems
      @ [ "adv vs linux" ]
    in
    let rows =
      List.map
        (fun (bench, per_sys) ->
          let linux = Plan.tp (List.assoc System.Linux per_sys) in
          let adv = Plan.tp (List.assoc corten_adv per_sys) in
          Micro.bench_name bench
          :: List.map (fun k -> Plan.fmt_tp (List.assoc k per_sys)) all_systems
          @ [ Plan.pct_vs ~base:linux adv ])
        results
    in
    Tablefmt.print ~header rows;
    Printf.printf
      "\nPaper: adv beats Linux on mmap-PF/PF/unmap-virt/unmap by 7.8%%..46.8%%,\n\
       loses ~3%% on mmap (PT-page init vs VMA init); rw slightly below adv.\n\n"
  in
  { Plan.cells; render }

(* -- Fig 14: multithreaded sweeps, low and high contention -- *)

(* MM_FIG14_SUBSET (hidden; any value) shrinks the sweep to a seconds-long
   subset with the same shape — check.sh uses it to `cmp` the -j 2 stream
   against -j 1 without paying for the full 350-cell product. *)
let fig14_plan ?(isa = Mm_hal.Isa.x86_64) ?systems ?benches ?cores ?iters ()
    =
  let subset = Sys.getenv_opt "MM_FIG14_SUBSET" <> None in
  let dfl full sub = if subset then sub else full in
  let systems =
    Option.value systems ~default:(dfl all_systems [ System.Linux; corten_adv ])
  in
  let benches =
    Option.value benches ~default:(dfl Micro.all_benches [ Micro.Mmap_pf ])
  in
  let cores = Option.value cores ~default:(dfl core_sweep [ 1; 2; 4 ]) in
  let iters = Option.value iters ~default:(dfl iters_multi 10) in
  let contentions = [ Micro.Low; Micro.High ] in
  let cells =
    List.concat_map
      (fun contention ->
        List.concat_map
          (fun bench ->
            List.concat_map
              (fun ncpus ->
                List.map
                  (fun kind ->
                    micro_cell ~isa ~kind ~ncpus ~bench ~contention ~iters)
                  systems)
              cores)
          benches)
      contentions
  in
  let render take =
    Printf.printf
      "## Fig 14 — multithreaded microbenchmark throughput (%s)\n\
       ops/second over a core sweep; low contention = private regions,\n\
       high contention = random chunks of one shared region.\n\n"
      isa.Mm_hal.Isa.name;
    List.iter
      (fun contention ->
        List.iter
          (fun bench ->
            Printf.printf "### %s, %s contention\n" (Micro.bench_name bench)
              (Micro.contention_name contention);
            let header =
              "cores" :: List.map (fun k -> System.kind_name k) systems
            in
            let rows =
              List.map
                (fun ncpus ->
                  string_of_int ncpus
                  :: List.map (fun _kind -> Plan.fmt_tp (take ())) systems)
                cores
            in
            Tablefmt.print ~header rows;
            print_newline ())
          benches)
      contentions;
    Printf.printf
      "Paper: adv scales near-linearly on all low-contention benches (33x..2270x\n\
       over Linux at 384 cores); saturates past ~64 threads under high\n\
       contention but stays 3x..1489x over Linux; rw between Linux and adv;\n\
       RadixVM beats adv on high-contention PF; NrOS ~ Linux.\n\n"
  in
  { Plan.cells; render }

(* -- Fig 1: the motivation figure (subset of Fig 14) -- *)

let fig1_plan () =
  let isa = Mm_hal.Isa.x86_64 in
  let systems = [ System.Linux; System.Radixvm; corten_adv ] in
  let benches = [ Micro.Mmap_pf; Micro.Unmap ] in
  let cells =
    List.concat_map
      (fun bench ->
        List.concat_map
          (fun ncpus ->
            List.map
              (fun kind ->
                micro_cell ~isa ~kind ~ncpus ~bench ~contention:Micro.Low
                  ~iters:iters_multi)
              systems)
          core_sweep)
      benches
  in
  let render take =
    Printf.printf
      "## Fig 1 — motivation: multicore mmap-PF and munmap\n\
       (a) each thread mmaps a region and accesses it; (b) each thread\n\
       munmaps mapped pages. Private regions per thread.\n\n";
    List.iter
      (fun bench ->
        Printf.printf "### (%s)\n" (Micro.bench_name bench);
        let header = "cores" :: List.map System.kind_name systems in
        let rows =
          List.map
            (fun ncpus ->
              string_of_int ncpus
              :: List.map (fun _kind -> Plan.fmt_tp (take ())) systems)
            core_sweep
        in
        Tablefmt.print ~header rows;
        print_newline ())
      benches;
    Printf.printf
      "Paper: Linux flat (mmap_lock), RadixVM scales PF but trails on unmap,\n\
       CortenMM scales near-linearly on both.\n\n"
  in
  { Plan.cells; render }

(* -- Fig 19: RISC-V port -- *)

let fig19_plan () =
  let isa = Mm_hal.Isa.riscv_sv48 in
  let systems = [ System.Linux; corten_rw; corten_adv ] in
  let single_cells =
    List.concat_map
      (fun bench ->
        List.map
          (fun kind ->
            micro_cell ~isa ~kind ~ncpus:1 ~bench ~contention:Micro.Low
              ~iters:iters_single)
          systems)
      Micro.all_benches
  in
  let multi_cells =
    List.concat_map
      (fun bench ->
        List.map
          (fun kind ->
            micro_cell ~isa ~kind ~ncpus:32 ~bench ~contention:Micro.Low
              ~iters:iters_multi)
          systems)
      Micro.all_benches
  in
  let render take =
    Printf.printf
      "## Fig 19 — microbenchmarks under the RISC-V Sv48 PTE format\n\
       Same engine, different bit-level format via the HAL (Fig 9 analog).\n\n";
    Printf.printf "### single-threaded\n";
    let header =
      "bench" :: List.map System.kind_name systems @ [ "adv vs linux" ]
    in
    let rows =
      List.map
        (fun bench ->
          let per = List.map (fun kind -> (kind, take ())) systems in
          let linux = Plan.tp (List.assoc System.Linux per) in
          let adv = Plan.tp (List.assoc corten_adv per) in
          Micro.bench_name bench
          :: List.map (fun k -> Plan.fmt_tp (List.assoc k per)) systems
          @ [ Plan.pct_vs ~base:linux adv ])
        Micro.all_benches
    in
    Tablefmt.print ~header rows;
    Printf.printf "\n### 32 threads, low contention\n";
    let rows =
      List.map
        (fun bench ->
          Micro.bench_name bench
          :: List.map (fun _kind -> Plan.fmt_tp (take ())) systems)
        Micro.all_benches
    in
    Tablefmt.print ~header:("bench" :: List.map System.kind_name systems) rows;
    Printf.printf
      "\nPaper: the performance differences between CortenMM and Linux on\n\
       RISC-V remain similar to x86-64 (Fig 13).\n\n"
  in
  { Plan.cells = single_cells @ multi_cells; render }
