(* Copy-on-write fork walkthrough (the paper's Fig 8 COW logic).

   Run with: dune exec examples/cow_fork.exe

   A parent writes to a page, forks, and both sides read and write; the
   example prints the frame numbers and map counts so the COW sharing and
   the break are visible. *)

module Engine = Mm_sim.Engine
module Perm = Mm_hal.Perm
open Cortenmm

let pfn_of asp addr =
  Addr_space.with_lock asp ~lo:addr ~hi:(addr + 4096) (fun c ->
      match Addr_space.query c addr with
      | Status.Mapped { pfn; perm } ->
        Some (pfn, Perm.to_string perm)
      | _ -> None)

let show kernel asp name addr =
  match pfn_of asp addr with
  | Some (pfn, perm) ->
    let f = Mm_phys.Phys.frame kernel.Kernel.phys pfn in
    Printf.printf "   %-7s -> frame %#x (%s), map_count=%d, value=%d\n" name
      pfn perm f.Mm_phys.Frame.map_count f.Mm_phys.Frame.contents
  | None -> Printf.printf "   %-7s -> (not mapped)\n" name

let () =
  let kernel = Kernel.create ~ncpus:1 () in
  let parent = Addr_space.create kernel Config.adv in
  let w = Engine.create ~ncpus:1 in
  Engine.spawn w ~cpu:0 (fun () ->
      let addr =
        Mm_hal.Errno.ok_exn (Mm.mmap_r parent ~len:4096 ~perm:Perm.rw ())
      in
      Mm.write_value parent ~vaddr:addr ~value:42;
      Printf.printf "== before fork\n";
      show kernel parent "parent" addr;

      let child = Mm.fork parent in
      Printf.printf "\n== after fork: both map the same frame, write-protected + COW\n";
      show kernel parent "parent" addr;
      show kernel child "child" addr;

      Printf.printf "\n== child reads (no copy)\n";
      Printf.printf "   child reads %d\n" (Mm.read_value child ~vaddr:addr);

      Printf.printf "\n== child writes 7: COW break copies the frame\n";
      Mm.write_value child ~vaddr:addr ~value:7;
      show kernel parent "parent" addr;
      show kernel child "child" addr;

      Printf.printf
        "\n== parent writes 43: sole owner now, no copy (Fig 8 L29-31)\n";
      Mm.write_value parent ~vaddr:addr ~value:43;
      show kernel parent "parent" addr;
      show kernel child "child" addr;

      Addr_space.check_well_formed parent;
      Addr_space.check_well_formed child;
      Printf.printf "\nboth page tables verified well-formed.\n");
  Engine.run w
