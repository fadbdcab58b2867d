(* The registry of seeded bugs. Each variant names one deliberately
   broken code path that the project's checkers must catch; the code
   path itself tests [armed] at its one injection point. The armed slot
   is domain-local so parallel schedcheck shards and oracle replays arm
   it independently. *)

type t =
  | Rw_skip_handoff
  | Rcu_no_gp
  | Fork_skip_parent_wp
  | Reclaim_skip_writeback

let all =
  [ Rw_skip_handoff; Rcu_no_gp; Fork_skip_parent_wp; Reclaim_skip_writeback ]

let name = function
  | Rw_skip_handoff -> "rw-skip-handoff"
  | Rcu_no_gp -> "rcu-no-gp"
  | Fork_skip_parent_wp -> "fork-skip-parent-wp"
  | Reclaim_skip_writeback -> "reclaim-skip-writeback"

let of_string s =
  match List.find_opt (fun m -> name m = s) all with
  | Some m -> Ok m
  | None ->
    Error
      (Printf.sprintf "unknown mutant %S (valid: %s)" s
         (String.concat ", " (List.map name all)))

let slot : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let arm m = Domain.DLS.get slot := m

(* Constant constructors are immediates, so [==] is the whole test. *)
let armed m =
  match !(Domain.DLS.get slot) with Some a -> a == m | None -> false
