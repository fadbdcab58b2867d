(** LMbench-style process benchmarks (paper Fig 20): fork, fork+exec and
    shell, which exercise address-space enumeration — CortenMM's worst
    case (page-table walk) versus Linux's VMA list. *)

type bench = Fork | Fork_exec | Shell

val bench_name : bench -> string

val run :
  kind:System.kind ->
  bench:bench ->
  ?iters:int ->
  unit ->
  int
(** Average cycles per iteration (lower is better), measured on a
    populated process image. *)
