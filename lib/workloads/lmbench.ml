(* LMbench-style process benchmarks (paper Fig 20): fork, fork+exec, and
   shell. These exercise the operations that must enumerate the address
   space — the worst case for CortenMM, which walks page tables to find
   all regions, while Linux walks its VMA list (§6.2).

   Only Linux and CortenMM are compared, as in the paper. *)

module Errno = Mm_hal.Errno
module Perm = Mm_hal.Perm
module Engine = Mm_sim.Engine

let kib n = n * 1024
let mib n = n * 1024 * 1024

type bench = Fork | Fork_exec | Shell

let bench_name = function
  | Fork -> "fork"
  | Fork_exec -> "fork+exec"
  | Shell -> "shell"

(* A typical dynamically-linked process image: text, data, heap, stack and
   a set of shared-library mappings, with the hot pages touched. *)
let image_mappings =
  [ (mib 2, 32); (mib 1, 16); (mib 4, 64); (kib 512, 8) ]
  @ List.init 16 (fun _ -> (kib 256, 2))

(* The image of the dummy child used by exec. Program startup is
   fault-heavy (loader, libc, relocations touch many pages), which is why
   the paper's fork+exec favors CortenMM's faster fault path. *)
let exec_mappings =
  [ (mib 2, 384); (mib 1, 192); (kib 256, 64); (kib 128, 16) ]

let populate sys mappings =
  List.iter
    (fun (len, touched) ->
      let addr = Errno.ok_exn (System.mmap sys ~len ~perm:Perm.rw ()) in
      Errno.ok_exn
        (System.touch_range sys ~addr ~len:(touched * 4096) ~write:true))
    mappings

let fork sys = Errno.ok_exn (System.fork sys)

(* exec: tear the image down and build the (small) new one, faulting its
   pages in. *)
let exec sys =
  System.destroy sys;
  populate sys exec_mappings;
  Engine.tick 120_000 (* ELF loading, relocation *)

(* Run one benchmark; returns average cycles per iteration (lower is
   better, as in Fig 20). *)
let run ~kind ~bench ?(iters = 8) () =
  let measured = ref 0 in
  let w = Engine.create ~ncpus:1 in
  Engine.spawn w ~cpu:0 (fun () ->
      let parent = System.make kind ~ncpus:1 in
      populate parent image_mappings;
      let start = Engine.now () in
      (for _ = 1 to iters do
          match bench with
          | Fork ->
            let child = fork parent in
            Engine.tick 50_000 (* scheduler + task_struct work *);
            System.destroy child
          | Fork_exec ->
            let child = fork parent in
            Engine.tick 50_000;
            exec child;
            Engine.tick 80_000 (* the dummy program runs *);
            System.destroy child
          | Shell ->
            (* execlp "sh -c echo": fork + exec sh, sh forks + execs echo. *)
            let sh = fork parent in
            Engine.tick 50_000;
            exec sh;
            Engine.tick 200_000 (* shell startup, parsing *);
            let echo = fork sh in
            Engine.tick 50_000;
            exec echo;
            Engine.tick 40_000;
            System.destroy echo;
            System.destroy sh
       done);
      measured := Engine.now () - start);
  Engine.run w;
  !measured / iters
