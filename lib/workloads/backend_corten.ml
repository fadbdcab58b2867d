(* CortenMM adapter: packs one [Cortenmm.Config.t] variant (adv, rw, or
   an ablation) behind {!Backend.S}. The typed error path goes straight
   through [Cortenmm.Mm]'s [_r] operations — CortenMM is the one system
   whose core already speaks [Errno.t]. *)

module Errno = Mm_hal.Errno
module Perm = Mm_hal.Perm

type state = {
  kernel : Cortenmm.Kernel.t;
  asp : Cortenmm.Addr_space.t;
  daemon : Cortenmm.Pageoutd.t;
      (* one per kernel (fork children inherit it); idle unless a driver
         applies pressure, so default runs never see it *)
}

(* The probe byte of one page slot. Logical writability: a
   COW-protected resident page counts as writable (the store succeeds
   after the break); virtually-allocated and swapped pages report their
   stored protection. *)
let code_of_status = function
  | Cortenmm.Status.Invalid -> '\000'
  | Cortenmm.Status.Mapped { perm; _ } ->
    Mm_hal.Probe.code ~writable:(perm.Perm.write || perm.Perm.cow)
      ~resident:true
  | Cortenmm.Status.Private_anon perm
  | Cortenmm.Status.Private_file { perm; _ }
  | Cortenmm.Status.Shared_anon { perm; _ }
  | Cortenmm.Status.Swapped { perm; _ } ->
    Mm_hal.Probe.code ~writable:perm.Perm.write ~resident:false

let page_state_of_status s = Backend.page_state_of_code (code_of_status s)

let make cfg : Backend.b =
  (module struct
    type t = state

    let name = Cortenmm.Config.name cfg
    let kind = Backend.Corten cfg
    let caps =
      { Backend.demand_paging = true; has_mprotect = true; has_reclaim = true }

    let create ?(isa = Mm_hal.Isa.x86_64) ~ncpus () =
      let kernel = Cortenmm.Kernel.create ~isa ~ncpus () in
      let asp = Cortenmm.Addr_space.create kernel cfg in
      let daemon =
        Cortenmm.Pageoutd.create kernel
          ~dev:(Cortenmm.Blockdev.create ~name:"swap0" ())
          ()
      in
      Cortenmm.Pageoutd.register_space daemon asp;
      { kernel; asp; daemon }

    let page_size t = Cortenmm.Addr_space.page_size t.asp

    let mmap t ?addr ~len ~perm () =
      Cortenmm.Mm.mmap_r t.asp ?addr ~len ~perm ()

    let munmap t ~addr ~len = Cortenmm.Mm.munmap_r t.asp ~addr ~len

    let mprotect t ~addr ~len ~perm =
      Cortenmm.Mm.mprotect_r t.asp ~addr ~len ~perm

    let touch t ~vaddr ~write = Cortenmm.Mm.touch_r t.asp ~vaddr ~write

    let touch_range t ~addr ~len ~write =
      Cortenmm.Mm.touch_range_r t.asp ~addr ~len ~write

    (* One inspection transaction over the ranges' hull; inside it, one
       page-table enumeration per range (§6.2), which reports a huge
       leaf or an upper-level mark once for all the pages it covers. *)
    let probe t ranges =
      let ps = Cortenmm.Addr_space.page_size t.asp in
      let lo, hi =
        List.fold_left
          (fun (lo, hi) (addr, len) ->
            let pages = len / ps in
            if pages = 0 then (lo, hi)
            else (min lo addr, max hi (addr + (pages * ps))))
          (max_int, min_int) ranges
      in
      (* No range has a page: the probe is empty. *)
      if lo >= hi then ""
      else
        Cortenmm.Addr_space.with_lock t.asp ~lo ~hi (fun c ->
            Mm_hal.Probe.make ~page_size:ps ranges
              (fun buf ~off ~addr ~pages ->
                let hi = addr + (pages * ps) in
                Cortenmm.Addr_space.iter_slots c ~lo:addr ~hi
                  (fun v bytes status ->
                    let code = code_of_status status in
                    for p = (max v addr - addr) / ps
                        to ((min (v + bytes) hi - addr) / ps) - 1 do
                      Bytes.set buf (off + p) code
                    done)))

    let fork t =
      match Cortenmm.Mm.fork t.asp with
      | child ->
        Cortenmm.Pageoutd.register_space t.daemon child;
        Ok { t with asp = child }
      | exception Mm_phys.Buddy.Out_of_memory -> Error Errno.ENOMEM

    let destroy t =
      Cortenmm.Pageoutd.unregister_space t.daemon t.asp;
      Cortenmm.Mm.destroy t.asp

    let write_value t ~vaddr ~value =
      Cortenmm.Mm.write_value_r t.asp ~vaddr ~value

    let read_value t ~vaddr = Cortenmm.Mm.read_value_r t.asp ~vaddr

    let mlock t ~addr ~len = Cortenmm.Mm.mlock_r t.asp ~addr ~len
    let munlock t ~addr ~len = Cortenmm.Mm.munlock_r t.asp ~addr ~len

    let pressure t ~target_pages =
      Ok (Cortenmm.Pageoutd.pressure t.daemon ~target_pages)

    let timer_tick t = Cortenmm.Mm.timer_tick t.asp

    let set_shootdown_policy t p =
      Mm_tlb.Tlb.set_policy (Cortenmm.Addr_space.tlb t.asp) p

    let tlb_counters t =
      Mm_tlb.Tlb.counters (Cortenmm.Addr_space.tlb t.asp)

    let mem_stats t =
      let s = Cortenmm.Addr_space.mem_stats t.asp in
      let u = Mm_phys.Phys.usage t.kernel.Cortenmm.Kernel.phys in
      {
        Backend.pt_bytes = s.Cortenmm.Addr_space.pt_bytes;
        kernel_bytes = s.Cortenmm.Addr_space.meta_bytes;
        resident_bytes = u.Mm_phys.Phys.anon_bytes;
        peak_resident_bytes =
          Mm_phys.Phys.peak_data_bytes t.kernel.Cortenmm.Kernel.phys;
      }
  end : Backend.S)
