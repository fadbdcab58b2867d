(* Tests for the physical memory substrate: the buddy allocator (splits,
   merges, alignment, double-free detection, invariant preservation under
   random workloads), frame descriptors and their on-demand PT-page
   locks, NUMA striping and accounting. *)

module Buddy = Mm_phys.Buddy
module Phys = Mm_phys.Phys
module Frame = Mm_phys.Frame

let check = Alcotest.check

(* -- Buddy basics -- *)

let test_alloc_distinct () =
  let b = Buddy.create ~nframes:1024 in
  let a = Buddy.alloc b ~order:0 in
  let c = Buddy.alloc b ~order:0 in
  check Alcotest.bool "distinct" true (a <> c);
  check Alcotest.int "two allocated" 2 (Buddy.allocated_frames b);
  Buddy.check_invariants b

let test_alignment () =
  let b = Buddy.create ~nframes:(1 lsl 16) in
  let _ = Buddy.alloc b ~order:0 in
  let big = Buddy.alloc b ~order:6 in
  check Alcotest.bool "order-6 block aligned" true
    (Mm_util.Align.is_aligned big 64);
  let huge = Buddy.alloc b ~order:9 in
  check Alcotest.bool "order-9 block aligned" true
    (Mm_util.Align.is_aligned huge 512);
  Buddy.check_invariants b

let test_split_and_merge () =
  let b = Buddy.create ~nframes:1024 in
  (* Allocate an order-3 block, free it as... no: allocate two order-0
     from a split, free both, the buddies must merge back. *)
  let a = Buddy.alloc b ~order:3 in
  Buddy.free b ~pfn:a ~order:3;
  Buddy.check_invariants b;
  let x = Buddy.alloc b ~order:0 in
  let y = Buddy.alloc b ~order:0 in
  check Alcotest.bool "buddies from one split" true (x lxor y = 1 || x <> y);
  Buddy.free b ~pfn:x ~order:0;
  Buddy.free b ~pfn:y ~order:0;
  Buddy.check_invariants b;
  check Alcotest.bool "merges recorded" true (Buddy.merges b > 0);
  check Alcotest.int "nothing allocated" 0 (Buddy.allocated_frames b)

let test_double_free_detected () =
  let b = Buddy.create ~nframes:1024 in
  let a = Buddy.alloc b ~order:0 in
  Buddy.free b ~pfn:a ~order:0;
  Alcotest.(check bool)
    "double free raises" true
    (try
       Buddy.free b ~pfn:a ~order:0;
       false
     with Invalid_argument _ -> true)

let test_misaligned_free_detected () =
  let b = Buddy.create ~nframes:1024 in
  let _ = Buddy.alloc b ~order:2 in
  Alcotest.(check bool)
    "misaligned free raises" true
    (try
       Buddy.free b ~pfn:1 ~order:2;
       false
     with Invalid_argument _ -> true)

let test_out_of_memory () =
  let b = Buddy.create ~nframes:16 in
  let _ = Buddy.alloc b ~order:4 in
  Alcotest.(check bool)
    "exhaustion raises" true
    (try
       ignore (Buddy.alloc b ~order:0);
       false
     with Buddy.Out_of_memory -> true)

let buddy_stress_prop =
  QCheck.Test.make ~name:"buddy invariants under random alloc/free" ~count:60
    QCheck.(
      pair small_int
        (list_of_size (QCheck.Gen.return 200) (int_bound 3)))
    (fun (seed, orders) ->
      let rng = Mm_util.Rng.create ~seed in
      let b = Buddy.create ~nframes:(1 lsl 14) in
      let live = ref [] in
      List.iter
        (fun order ->
          if Mm_util.Rng.bool rng || !live = [] then begin
            let pfn = Buddy.alloc b ~order in
            live := (pfn, order) :: !live
          end
          else begin
            let i = Mm_util.Rng.int rng (List.length !live) in
            let pfn, order = List.nth !live i in
            live := List.filteri (fun j _ -> j <> i) !live;
            Buddy.free b ~pfn ~order
          end;
          Buddy.check_invariants b)
        orders;
      (* Allocated count equals the live set's frame total. *)
      Buddy.allocated_frames b
      = List.fold_left (fun a (_, o) -> a + (1 lsl o)) 0 !live)

let buddy_no_overlap_prop =
  QCheck.Test.make ~name:"buddy never hands out overlapping blocks" ~count:40
    QCheck.(list_of_size (QCheck.Gen.return 100) (int_bound 4))
    (fun orders ->
      let b = Buddy.create ~nframes:(1 lsl 14) in
      let claimed = Hashtbl.create 256 in
      List.for_all
        (fun order ->
          let pfn = Buddy.alloc b ~order in
          let ok = ref true in
          for i = pfn to pfn + (1 lsl order) - 1 do
            if Hashtbl.mem claimed i then ok := false;
            Hashtbl.replace claimed i ()
          done;
          !ok)
        orders)

(* -- Reference-implementation equivalence --

   A deliberately naive buddy (unsorted association lists, smallest-pfn pop
   by linear scan) implementing the same split/merge/frontier algorithm.
   The optimized allocator must produce identical pfn sequences and
   identical per-order free-block sets on any alloc/free trace. *)

module Ref_buddy = struct
  let max_order = 10

  type t = { nframes : int; mutable frontier : int; free : int list array }

  let create ~nframes =
    { nframes; frontier = 0; free = Array.make (max_order + 1) [] }

  let block_size order = 1 lsl order
  let buddy_of ~pfn ~order = pfn lxor block_size order
  let is_free t ~pfn ~order = List.mem pfn t.free.(order)

  let remove t ~pfn ~order =
    t.free.(order) <- List.filter (fun p -> p <> pfn) t.free.(order)

  let add t ~pfn ~order = t.free.(order) <- pfn :: t.free.(order)

  let pop_min t ~order =
    match t.free.(order) with
    | [] -> None
    | l ->
      let m = List.fold_left min max_int l in
      remove t ~pfn:m ~order;
      Some m

  let rec any_free_above t ~order =
    order < max_order
    && (t.free.(order + 1) <> [] || any_free_above t ~order:(order + 1))

  let rec insert_and_merge t ~pfn ~order ~limit =
    let b = buddy_of ~pfn ~order in
    if
      order < max_order
      && b + block_size order <= limit
      && is_free t ~pfn:b ~order
    then begin
      remove t ~pfn:b ~order;
      insert_and_merge t ~pfn:(min pfn b) ~order:(order + 1) ~limit
    end
    else add t ~pfn ~order

  let release_range t ~lo ~hi =
    let lo = ref lo in
    while !lo < hi do
      let rec align o =
        if
          o < max_order
          && Mm_util.Align.is_aligned !lo (block_size (o + 1))
          && !lo + block_size (o + 1) <= hi
        then align (o + 1)
        else o
      in
      let order = align 0 in
      insert_and_merge t ~pfn:!lo ~order ~limit:hi;
      lo := !lo + block_size order
    done

  let rec alloc t ~order =
    if order > max_order then failwith "ref buddy: out of memory";
    match pop_min t ~order with
    | Some pfn -> pfn
    | None ->
      if not (any_free_above t ~order) then begin
        let pfn = Mm_util.Align.up t.frontier (block_size order) in
        if pfn + block_size order > t.nframes then
          failwith "ref buddy: out of memory";
        release_range t ~lo:t.frontier ~hi:pfn;
        t.frontier <- pfn + block_size order;
        pfn
      end
      else begin
        let big = alloc t ~order:(order + 1) in
        add t ~pfn:(big + block_size order) ~order;
        big
      end

  let free t ~pfn ~order = insert_and_merge t ~pfn ~order ~limit:t.frontier
  let free_blocks t ~order = List.sort compare t.free.(order)
end

(* One seeded random trace, compared step by step: every alloc must return
   the same pfn, and after every operation the full free-list state (all
   orders) must agree, while the optimized allocator's internal invariants
   hold. *)
let run_equivalence_trace ~seed ~steps =
  let nframes = 1 lsl 14 in
  let b = Buddy.create ~nframes in
  let r = Ref_buddy.create ~nframes in
  let rng = Mm_util.Rng.create ~seed in
  let live = ref [] in
  let compare_state step =
    check Alcotest.int
      (Printf.sprintf "step %d: frontier" step)
      r.Ref_buddy.frontier (Buddy.frontier b);
    for order = 0 to 10 do
      check
        Alcotest.(list int)
        (Printf.sprintf "step %d: free blocks of order %d" step order)
        (Ref_buddy.free_blocks r ~order)
        (Buddy.free_blocks b ~order)
    done;
    Buddy.check_invariants b
  in
  for step = 1 to steps do
    if Mm_util.Rng.bool rng || !live = [] then begin
      let order = Mm_util.Rng.int rng 4 in
      let pfn = Buddy.alloc b ~order in
      let pfn' = Ref_buddy.alloc r ~order in
      check Alcotest.int
        (Printf.sprintf "step %d: alloc order %d pfn" step order)
        pfn' pfn;
      live := (pfn, order) :: !live
    end
    else begin
      let i = Mm_util.Rng.int rng (List.length !live) in
      let pfn, order = List.nth !live i in
      live := List.filteri (fun j _ -> j <> i) !live;
      Buddy.free b ~pfn ~order;
      Ref_buddy.free r ~pfn ~order
    end;
    compare_state step
  done

let test_reference_equivalence () =
  List.iter (fun seed -> run_equivalence_trace ~seed ~steps:300) [ 1; 7; 42 ]

(* -- Phys / frames / NUMA -- *)

let test_frame_descriptors () =
  let phys = Phys.create () in
  let f = Phys.alloc phys ~kind:Frame.Anon () in
  check Alcotest.bool "kind set" true (f.Frame.kind = Frame.Anon);
  let same = Phys.frame phys f.Frame.pfn in
  check Alcotest.bool "descriptor identity" true (f == same);
  Phys.free phys f;
  check Alcotest.bool "freed" true (f.Frame.kind = Frame.Free);
  Alcotest.(check bool)
    "free of free raises" true
    (try
       Phys.free phys f;
       false
     with Invalid_argument _ -> true)

(* PT-page locks are built on first use, under the ids the descriptor
   reserved when it was made: the rwlock the first, the mutex the next —
   the order the eagerly built locks used to draw them in. *)
let test_pt_locks_on_demand () =
  Mm_obs.Contention.reset ();
  let phys = Phys.create () in
  let data = Phys.alloc phys ~kind:Frame.Anon () in
  let pt = Phys.alloc phys ~kind:Frame.Pt_page () in
  let next_id = Mm_obs.Contention.fresh_id () in
  check Alcotest.bool "no lock before first use" false (Frame.has_locks pt);
  check Alcotest.int "mutex id is the reserved id + 1" (pt.Frame.lock_id + 1)
    (Mm_sim.Mutex_s.id (Frame.lock pt));
  check Alcotest.int "rwlock id is the reserved id" pt.Frame.lock_id
    (Mm_sim.Rwlock_s.id (Frame.rwlock pt));
  check Alcotest.int "ids reserved in creation order" (data.Frame.lock_id + 2)
    pt.Frame.lock_id;
  check Alcotest.int "two ids per descriptor" (pt.Frame.lock_id + 2) next_id;
  (* A built lock is the descriptor's for life, across free and reuse. *)
  let m = Frame.lock pt and l = Frame.rwlock pt in
  Phys.free phys pt;
  let again = Phys.alloc phys ~kind:Frame.Pt_page () in
  check Alcotest.bool "same descriptor reused" true (again == pt);
  check Alcotest.bool "mutex kept" true (Frame.lock again == m);
  check Alcotest.bool "rwlock kept" true (Frame.rwlock again == l);
  check Alcotest.bool "data page never built one" false (Frame.has_locks data)

let test_usage_accounting () =
  let phys = Phys.create () in
  let f1 = Phys.alloc phys ~kind:Frame.Anon () in
  let _ = Phys.alloc phys ~kind:Frame.Pt_page () in
  let u = Phys.usage phys in
  check Alcotest.int "anon bytes" 4096 u.Phys.anon_bytes;
  check Alcotest.int "pt bytes" 4096 u.Phys.pt_bytes;
  Phys.free phys f1;
  check Alcotest.int "anon released" 0 (Phys.usage phys).Phys.anon_bytes;
  check Alcotest.int "peak remembered" 4096 (Phys.peak_data_bytes phys)

let test_numa_striping () =
  let phys = Phys.create ~numa_nodes:4 () in
  check Alcotest.int "4 nodes" 4 (Phys.numa_nodes phys);
  let frames =
    List.init 4 (fun node -> Phys.alloc phys ~kind:Frame.Anon ~node ())
  in
  List.iteri
    (fun node f ->
      check Alcotest.int
        (Printf.sprintf "frame %d on its node" node)
        node
        (Phys.node_of_pfn phys f.Frame.pfn))
    frames;
  (* Freeing works across nodes. *)
  List.iter (Phys.free phys) frames;
  check Alcotest.int "all released" 0 (Phys.allocated_frames phys)

let test_numa_bad_node_rejected () =
  let phys = Phys.create ~numa_nodes:2 () in
  Alcotest.(check bool)
    "bad node raises" true
    (try
       ignore (Phys.alloc phys ~kind:Frame.Anon ~node:5 ());
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "mm_phys"
    [
      ( "buddy",
        [
          Alcotest.test_case "alloc distinct" `Quick test_alloc_distinct;
          Alcotest.test_case "alignment" `Quick test_alignment;
          Alcotest.test_case "split and merge" `Quick test_split_and_merge;
          Alcotest.test_case "double free" `Quick test_double_free_detected;
          Alcotest.test_case "misaligned free" `Quick
            test_misaligned_free_detected;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          QCheck_alcotest.to_alcotest buddy_stress_prop;
          QCheck_alcotest.to_alcotest buddy_no_overlap_prop;
          Alcotest.test_case "reference equivalence" `Quick
            test_reference_equivalence;
        ] );
      ( "phys",
        [
          Alcotest.test_case "frame descriptors" `Quick test_frame_descriptors;
          Alcotest.test_case "PT locks on demand" `Quick
            test_pt_locks_on_demand;
          Alcotest.test_case "usage accounting" `Quick test_usage_accounting;
          Alcotest.test_case "numa striping" `Quick test_numa_striping;
          Alcotest.test_case "numa bad node" `Quick test_numa_bad_node_rejected;
        ] );
    ]
