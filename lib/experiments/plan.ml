(* The plan/render split for experiments.

   An experiment declares its independent simulation cells — each cell
   builds, runs and drops ONE world and returns its own measured value
   ['a] — plus a pure [render] that formats the tables. The driver can
   then flatten the cells of *every* selected entry into one domain pool
   and still render each entry on the calling domain in submission
   order, so the printed stream stays byte-identical to a sequential run
   while the critical path drops from "slowest entry" to "slowest cell"
   (fig14 alone is 350 cells).

   Cells must not print (all text belongs to [render]) and must not
   share state: the driver resets the domain-local world state before
   every cell, so a cell's behaviour — and its collected results — is a
   pure function of the cell itself. Source-derived tables (tab2, tab5)
   are plans with no cells: everything happens in [render]. *)

module Runner = Mm_workloads.Runner
module Tablefmt = Mm_util.Tablefmt

type 'a cell = {
  c_label : string;  (** per-cell wall-clock label, e.g. "high/PF/c64/linux" *)
  c_weight : float;
      (** relative cost hint (roughly cores × iterations); the driver
          starts heavy cells first *)
  c_run : unit -> 'a;  (** run the cell's world, return its measurement *)
}

type 'a t = {
  cells : 'a cell list;
  render : (unit -> 'a) -> unit;
      (** format the experiment's output; [take ()] hands out the
          completed cells' values in declaration order, and the driver
          fails the entry unless render takes each exactly once. Pure
          apart from printing through {!Mm_util.Out} *)
}

type packed = Pack : 'a t -> packed

let cell ~label ~weight run = { c_label = label; c_weight = weight; c_run = run }

(* -- Result formatting helpers, shared by fig_micro / fig_apps /
      fig_ext (one definition instead of per-file copies) -- *)

(* Throughput of an optional result; [nan] marks "not supported". *)
let tp = function
  | Some (r : Runner.result) -> r.ops_per_sec
  | None -> nan

let fmt_tp = function
  | Some (r : Runner.result) -> Tablefmt.fmt_si r.ops_per_sec
  | None -> "n/a"

(* "+12.3%" of [v] over [base]; "n/a" when either side is missing
   (guards the fig13/fig19 "adv vs linux" columns uniformly). *)
let pct_vs ~base v =
  if Float.is_nan base || Float.is_nan v then "n/a"
  else Printf.sprintf "%+.1f%%" ((v /. base -. 1.0) *. 100.0)
