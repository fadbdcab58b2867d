(** Differential cross-backend oracle: replay one {!Trace.t} on every
    registered backend in separate simulation worlds, each op through
    {!Trace.exec} (the trace language's one interpreter), and compare the
    observable state — typed error outcomes, per-op postconditions,
    {!System.mem_stats} invariants and, after every [check_every] ops,
    a snapshot of every live page — across backends. Capability
    differences (no mprotect, eager backing) mask exactly the
    observations they legitimately change; everything else must agree.

    A snapshot is one {!System.probe} per live process over all its live
    regions, kept as that one string of {!Mm_hal.Probe} bytes plus the
    region ids and page counts. Two backends' snapshots are compared
    under a bit mask built from the same capability rules; only a region
    whose masked bytes differ is decoded to {!Backend.page_state}s and
    described by {!compare_page_states}, so the divergence text is
    exactly what a page-by-page compare gives. *)

type outcome = O_ok | O_err of Mm_hal.Errno.t | O_skip

val outcome_to_string : outcome -> string

type divergence = {
  d_op : int;  (** index of the offending op in the trace *)
  d_backend_a : string;
  d_backend_b : string;  (** equals [d_backend_a] for a solo invariant *)
  d_what : string;
}

val describe : divergence -> string

val default_backends : unit -> System.backend list
(** All of {!System.Registry.all}, in registry order. *)

val compare_page_states :
  ?check_writable:bool ->
  ?check_resident:bool ->
  region:string ->
  Backend.page_state array ->
  Backend.page_state array ->
  string list
(** [compare_page_states ~region a b] describes every per-page mismatch
    between two equally sized probes of the same region ([region] labels
    the messages). [check_writable] / [check_resident] (both default
    [true]) mask the comparisons that capability differences legitimately
    change; callers comparing the same backend against itself — the
    schedule-exploration harness — keep both on. *)

val run :
  ?isa:Mm_hal.Isa.t ->
  ?check_every:int ->
  ?jobs:int ->
  ?mutant:Mm_sim.Mutant.t ->
  ?backends:System.backend list ->
  Trace.t ->
  (int, divergence) result
(** [Ok nops] when every backend agrees on the whole trace; otherwise
    the earliest divergence by op index. [check_every] defaults to 16;
    [backends] to {!default_backends} (the first entry is the
    reference). [jobs] (default 1) shards the per-backend replays
    across domains; the verdict is identical for any value.

    Fork ops replay as {!System.fork}: the child process inherits the
    parent's regions, a per-(proc, region, page) value model written by
    the trace's [write] ops and checked at its [read] ops proves COW
    isolation, and a post-fork solo postcondition requires parent and
    child page states to agree over every inherited region.

    Format-v3 reclaim ops ([mlock]/[munlock]/[pressure]) are
    capability-masked: backends without a page-out daemon skip them,
    and residency is then only compared between backends with reclaim
    parity.

    [mutant] (default none) arms a seeded bug in every replay. The
    value model must catch {!Mm_sim.Mutant.Fork_skip_parent_wp} at the
    first child read observing a leaked parent store, and
    {!Mm_sim.Mutant.Reclaim_skip_writeback} at the first read observing
    a token lost at page-out. *)
