(* Exception-style convenience shims over the typed [Mm.*_r] API, shared
   by the test suite.  Tests here only issue requests they expect to
   succeed, so an [Error _] is a test bug and raising is the right
   failure mode. *)

module Errno = Mm_hal.Errno

let mmap asp ?addr ?backing ?policy ~len ~perm () =
  Errno.ok_exn (Cortenmm.Mm.mmap_r asp ?addr ?backing ?policy ~len ~perm ())

let munmap asp ~addr ~len = Errno.ok_exn (Cortenmm.Mm.munmap_r asp ~addr ~len)

let mprotect asp ~addr ~len ~perm =
  Errno.ok_exn (Cortenmm.Mm.mprotect_r asp ~addr ~len ~perm)

let msync asp ~file = Errno.ok_exn (Cortenmm.Mm.msync_r asp ~file)
let mlock asp ~addr ~len = Errno.ok_exn (Cortenmm.Mm.mlock_r asp ~addr ~len)
let munlock asp ~addr ~len = Errno.ok_exn (Cortenmm.Mm.munlock_r asp ~addr ~len)
