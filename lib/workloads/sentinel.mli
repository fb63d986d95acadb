(** The bench regression sentinel.

    A fixed set of small probe workloads whose simulated cycle counts are
    deterministic, compared against a checked-in, schema-versioned
    baseline ([BENCH_BASELINE.json]).  Because the simulator is
    deterministic, the cycle comparison is {e exact}: any drift means the
    simulation's behaviour changed and is flagged hard.  The host cost of
    each probe is gated the same way, through the OCaml minor-heap words
    it allocates: an exact count for one compiler version. *)

val schema_version : string
(** ["pkru-safe.bench-baseline/2"] — stamped into every baseline file and
    checked on load. *)

type probe_result = {
  p_name : string;
  p_tier : string;  (** engine execution tier: ["ast"], ["bytecode"] or ["threaded"] *)
  p_cycles : int;  (** simulated cycles — deterministic, compared exactly *)
  p_transitions : int;  (** gate transitions — deterministic, compared exactly *)
  p_minor_words : int;
      (** [Gc.minor_words] across the probe's run — deterministic for one
          OCaml version, compared exactly when the baseline's matches *)
}

val probe_names : string list
(** Names of the probes [run_probes] produces, in order. *)

val twin_pairs : (string * string) list
(** Probe pairs the baseline pins cycle-equal: the mitigator's, the
    census's and the threaded dispatch tier's architectural invisibility,
    each expressed as a pair of probes that must report identical cycles
    and transitions. *)

val twin_mismatches : probe_result list -> (string * string) list
(** The {!twin_pairs} whose two probes diverged in this run (pairs with a
    missing member are skipped — [compare_results] flags those). *)

val run_probes : unit -> probe_result list
(** Profile and run every probe (fresh machine per probe, same pipeline as
    the bench harness). *)

val commit_hash : unit -> string
(** [git rev-parse HEAD], or ["unknown"] outside a git checkout. *)

val result_to_json : probe_result -> Util.Json.t
val result_of_json : Util.Json.t -> probe_result

type baseline = {
  b_commit : string;
  b_ocaml : string;  (** the [Sys.ocaml_version] that counted the minor words *)
  b_probes : probe_result list;
}

val baseline : ?commit:string -> probe_result list -> baseline
(** Stamps results with [commit] (default {!commit_hash}[ ()]) and the
    running OCaml version. *)

val baseline_to_json : baseline -> Util.Json.t
(** The baseline artifact: [{schema; commit; ocaml; probes}]. *)

val baseline_of_json : Util.Json.t -> baseline
(** Inverse of {!baseline_to_json}.  Raises [Invalid_argument] on a
    missing or mismatched schema stamp. *)

val minor_words_compared : baseline -> bool
(** Whether the baseline's OCaml version is the running one: only then
    are minor words compared. *)

type verdict =
  | Match
  | Cycle_drift of { base_cycles : int; base_transitions : int }
      (** simulated cycles or transitions differ from the baseline — a
          hard flag, the deterministic simulation changed *)
  | Minor_words_up of { base_minor_words : int }
      (** the probe allocates more than the baseline — a hard flag *)
  | Minor_words_down of { base_minor_words : int }
      (** the probe allocates less — warn-only: re-pin the baseline *)
  | Missing_in_baseline  (** probe ran but the baseline has no entry — warn-only *)
  | Missing_in_run  (** baseline entry with no fresh result — hard flag *)

val is_regression : verdict -> bool
(** [Cycle_drift], [Minor_words_up] and [Missing_in_run]. *)

val is_warning : verdict -> bool
(** [Minor_words_down] and [Missing_in_baseline]. *)

val compare_results :
  baseline:baseline -> probe_result list -> (string * probe_result * verdict) list
(** Diff a fresh run against the baseline.  One entry per fresh probe (in
    run order) followed by one [Missing_in_run] entry per baseline probe
    the run did not produce (carrying the baseline's own result).  Minor
    words are compared only when {!minor_words_compared}. *)

val has_regression : (string * probe_result * verdict) list -> bool

val render_comparison : baseline:baseline -> (string * probe_result * verdict) list -> string
(** Human-readable comparison table: the baseline's commit, one "not
    compared" line when its OCaml version differs from the running one,
    one line per probe and a summary line. *)
