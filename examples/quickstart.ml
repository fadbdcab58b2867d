(* Quickstart: the transactional interface in a nutshell.

   Run with: dune exec examples/quickstart.exe

   Creates an address space on a 4-CPU simulated machine, maps a region,
   touches it (demand paging), inspects it through a cursor, protects it
   and unmaps it — printing what happens at each step. *)

module Engine = Mm_sim.Engine

(* The MM operations return typed errors; these examples only issue valid
   requests, so [Errno.ok_exn] unwraps. *)
module Errno = Mm_hal.Errno

module Perm = Mm_hal.Perm
open Cortenmm

let step fmt = Printf.printf ("\n== " ^^ fmt ^^ "\n")

let () =
  let kernel = Kernel.create ~ncpus:4 () in
  let asp = Addr_space.create kernel Config.adv in
  let w = Engine.create ~ncpus:4 in
  Engine.spawn w ~cpu:0 (fun () ->
      step "mmap 64 KiB of anonymous memory (rw)";
      let addr =
        Errno.ok_exn (Mm.mmap_r asp ~len:(64 * 1024) ~perm:Perm.rw ())
      in
      Printf.printf "   -> %#x (no physical pages yet: on-demand paging)\n"
        addr;
      Printf.printf "   PT pages so far: %d\n"
        (Mm_pt.Pt.pt_page_count (Addr_space.pt asp));

      step "query the region inside a transaction";
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + (64 * 1024)) (fun c ->
          Printf.printf "   status(%#x) = %s\n" addr
            (Status.to_string (Addr_space.query c addr)));

      step "write to the first page (page fault -> zeroed frame)";
      Mm.write_value asp ~vaddr:addr ~value:1234;
      Printf.printf "   read back: %d\n" (Mm.read_value asp ~vaddr:addr);
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + 4096) (fun c ->
          Printf.printf "   status(%#x) = %s\n" addr
            (Status.to_string (Addr_space.query c addr)));

      step "mprotect the region read-only";
      Errno.ok_exn (Mm.mprotect_r asp ~addr ~len:(64 * 1024) ~perm:Perm.r);
      (match Mm.page_fault asp ~vaddr:addr ~write:true with
      | Mm.Sigsegv -> Printf.printf "   write fault -> SIGSEGV (as expected)\n"
      | Mm.Handled -> Printf.printf "   write fault unexpectedly handled!\n");

      step "munmap everything";
      Errno.ok_exn (Mm.munmap_r asp ~addr ~len:(64 * 1024));
      Addr_space.with_lock asp ~lo:addr ~hi:(addr + 4096) (fun c ->
          Printf.printf "   status(%#x) = %s\n" addr
            (Status.to_string (Addr_space.query c addr)));
      Addr_space.check_well_formed asp;
      Printf.printf "   page table verified well-formed.\n";

      step "simulated cost of this whole program";
      Printf.printf "   %d virtual cycles on cpu 0\n" (Engine.now ()));
  Engine.run w
