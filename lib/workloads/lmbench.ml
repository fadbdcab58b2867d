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

type proc =
  | P_corten of Cortenmm.Kernel.t * Cortenmm.Addr_space.t
  | P_linux of Mm_linux.Linux_mm.t

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


let populate proc mappings =
  List.iter
    (fun (len, touched) ->
      match proc with
      | P_corten (_, asp) ->
        let addr =
          Errno.ok_exn (Cortenmm.Mm.mmap_r asp ~len ~perm:Perm.rw ())
        in
        Cortenmm.Mm.touch_range asp ~addr ~len:(touched * 4096) ~write:true
      | P_linux t ->
        let addr = Mm_linux.Linux_mm.mmap t ~len ~perm:Perm.rw () in
        Mm_linux.Linux_mm.touch_range t ~addr ~len:(touched * 4096)
          ~write:true)
    mappings

let fork_proc = function
  | P_corten (k, asp) -> P_corten (k, Cortenmm.Mm.fork asp)
  | P_linux t -> P_linux (Mm_linux.Linux_mm.fork t)

let destroy_proc = function
  | P_corten (_, asp) -> Cortenmm.Mm.destroy asp
  | P_linux t -> Mm_linux.Linux_mm.destroy t

(* exec: tear the image down and build the (small) new one, faulting its
   pages in. *)
let exec_proc proc =
  destroy_proc proc;
  populate proc exec_mappings;
  Engine.tick 120_000 (* ELF loading, relocation *)

let make_proc ~kind ~ncpus =
  match kind with
  | `Corten cfg ->
    let kernel = Cortenmm.Kernel.create ~ncpus () in
    P_corten (kernel, Cortenmm.Addr_space.create kernel cfg)
  | `Linux -> P_linux (Mm_linux.Linux_mm.create ~ncpus ())

(* Run one benchmark; returns average cycles per iteration (lower is
   better, as in Fig 20). *)
let run ~kind ~bench ?(iters = 8) () =
  let measured = ref 0 in
  let w = Engine.create ~ncpus:1 in
  Engine.spawn w ~cpu:0 (fun () ->
      let parent = make_proc ~kind ~ncpus:1 in
      populate parent image_mappings;
      let start = Engine.now () in
      (for _ = 1 to iters do
          match bench with
          | Fork ->
            let child = fork_proc parent in
            Engine.tick 50_000 (* scheduler + task_struct work *);
            destroy_proc child
          | Fork_exec ->
            let child = fork_proc parent in
            Engine.tick 50_000;
            exec_proc child;
            Engine.tick 80_000 (* the dummy program runs *);
            destroy_proc child
          | Shell ->
            (* execlp "sh -c echo": fork + exec sh, sh forks + execs echo. *)
            let sh = fork_proc parent in
            Engine.tick 50_000;
            exec_proc sh;
            Engine.tick 200_000 (* shell startup, parsing *);
            let echo = fork_proc sh in
            Engine.tick 50_000;
            exec_proc echo;
            Engine.tick 40_000;
            destroy_proc echo;
            destroy_proc sh
       done);
      measured := Engine.now () - start);
  Engine.run w;
  !measured / iters
