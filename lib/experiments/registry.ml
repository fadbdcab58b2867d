(* The experiment registry: every table and figure of the paper's
   evaluation, by id, with the plan that regenerates it ({!Plan}: cells
   plus a pure render). {!Driver.run_entries} is the one way to run an
   entry. *)

type entry = {
  id : string;
  title : string;
  plan : Plan.packed;
}

let all =
  [
    { id = "fig1"; title = "motivation: multicore mmap-PF and munmap"; plan = Pack (Fig_micro.fig1_plan ()) };
    { id = "tab2"; title = "feature matrix"; plan = Pack (Fig_misc.tab2_plan ()) };
    { id = "fig13"; title = "single-thread microbenchmarks"; plan = Pack (Fig_micro.fig13_plan ()) };
    { id = "fig14"; title = "multithread microbenchmark sweeps"; plan = Pack (Fig_micro.fig14_plan ()) };
    { id = "fig15"; title = "single-thread real-world apps"; plan = Pack (Fig_apps.fig15_plan ()) };
    { id = "fig16"; title = "JVM thread creation + metis (with ablations)"; plan = Pack (Fig_apps.fig16_plan ()) };
    { id = "fig17"; title = "dedup + psearchy under ptmalloc/tcmalloc"; plan = Pack (Fig_apps.fig17_plan ()) };
    { id = "fig18"; title = "allocator memory usage"; plan = Pack (Fig_apps.fig18_plan ()) };
    { id = "fig19"; title = "RISC-V port microbenchmarks"; plan = Pack (Fig_micro.fig19_plan ()) };
    { id = "fig20"; title = "LMbench fork / fork+exec / shell"; plan = Pack (Fig_misc.fig20_plan ()) };
    { id = "fig21"; title = "8-thread other-PARSEC"; plan = Pack (Fig_apps.fig21_plan ()) };
    { id = "fig22"; title = "memory overhead"; plan = Pack (Fig_misc.fig22_plan ()) };
    { id = "tab4"; title = "verification effort / checker statistics"; plan = Pack (Fig_misc.tab4_plan ()) };
    { id = "tab5"; title = "portability LoC"; plan = Pack (Fig_misc.tab5_plan ()) };
    (* Extensions beyond the paper's evaluation (its §4.5 future work). *)
    { id = "ext-numa"; title = "extension: NUMA policies in the metadata"; plan = Pack (Fig_ext.ext_numa_plan ()) };
    { id = "ext-thp"; title = "extension: transparent huge pages"; plan = Pack (Fig_ext.ext_thp_plan ()) };
    { id = "ext-swapd"; title = "extension: second-chance swap daemon"; plan = Pack (Fig_ext.ext_swapd_plan ()) };
    { id = "ext-trace"; title = "extension: trace replay across systems"; plan = Pack (Fig_ext.ext_trace_plan ()) };
    { id = "ext-fleet"; title = "extension: fork_fleet process-fleet serving"; plan = Pack (Fig_ext.ext_fleet_plan ()) };
    { id = "ext-reclaim"; title = "extension: fault tails under page-out pressure"; plan = Pack (Fig_ext.ext_reclaim_plan ()) };
  ]

let ids = List.map (fun e -> e.id) all

(* Same shape as [System.Registry.find]: the error is a ready-to-print
   message embedding the valid ids. *)
let find id =
  match List.find_opt (fun e -> e.id = id) all with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown experiment id %S (valid: %s)" id
         (String.concat ", " ids))
