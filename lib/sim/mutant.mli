(** Seeded bugs: one closed registry of deliberately broken code paths
    that the checkers (schedule exploration, the differential oracle)
    must catch. At most one mutant is armed at a time, per domain;
    {!Mm_workloads.Runner.reset_world_state} disarms it. *)

type t =
  | Rw_skip_handoff
      (** [Rwlock_s.write_unlock] never hands the lock to a parked
          writer, starving it *)
  | Rcu_no_gp
      (** [Rcu_s.defer] runs its callback at once, ignoring the grace
          period — the use-after-free class of RCU bug *)
  | Fork_skip_parent_wp
      (** [Addr_space.clone_for_fork] skips write-protecting the
          parent's private leaves, so post-fork parent stores leak into
          frames the child still shares *)
  | Reclaim_skip_writeback
      (** pager [put_pages] skips the dirty writeback, so a page-out
          loses the page's data token *)

val all : t list
val name : t -> string

val of_string : string -> (t, string) result
(** Inverse of {!name}; the error lists every valid name. *)

val arm : t option -> unit
(** Arm a mutant on the calling domain ([None] disarms). *)

val armed : t -> bool
(** Is [m] the mutant armed on the calling domain? *)
