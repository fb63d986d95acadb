(* The bench regression sentinel.

   A small fixed set of probe workloads, each deterministic in simulated
   cycles, run against a checked-in baseline (BENCH_BASELINE.json).  The
   comparison rules follow what the simulator guarantees:

   - simulated cycles and gate transitions are deterministic, so ANY
     drift against the baseline is a real behavioural change (a perf
     regression or an unacknowledged improvement) and is flagged exactly;
   - the OCaml minor-heap words a probe allocates are the host-cost proxy:
     deterministic for one compiler, so any increase is flagged exactly
     and a decrease asks for a re-pin.  A different compiler allocates
     differently, so they are compared only when the baseline's OCaml
     version is the running one.

   Host wall-clock is not compared: the probes run for about a
   millisecond, far below what the host's noise lets a ratio resolve.

   The baseline file is schema-versioned and stamped with the commit and
   the OCaml version that produced it, so `bench --compare` output can
   always say what it was diffed against. *)

let schema_version = "pkru-safe.bench-baseline/2"

type probe_result = {
  p_name : string;
  p_tier : string;
  p_cycles : int;
  p_transitions : int;
  p_minor_words : int;
}

(* --- the probe set --- *)

let page = Dom_scripts.page ~rows:6

let bench name script = Bench_def.bench ~page name script

type probe = {
  name : string;
  bench : Bench_def.bench;
  mode : Pkru_safe.Config.mode;
  mitigation : Runtime.Mitigator.policy option;
  census_every : int option;
  tier : Engine.tier;
}

let tier_name = function
  | Engine.Ast_tier -> "ast"
  | Engine.Bytecode_tier -> "bytecode"
  | Engine.Threaded_tier -> "threaded"

(* Eight probes spanning the perf-relevant axes: gate-bound DOM traffic,
   DOM construction, a compute kernel where gates are rare, an engine-
   heavy benchmark, the mitigator's interposition cost, the heap census
   (whose cycles must stay exactly equal to the uncensused dom-attr
   probe — the baseline pins the census's architectural invisibility),
   and the two bytecode dispatch tiers (whose cycles must stay exactly
   equal to each other — the baseline pins the fast tier's architectural
   invisibility the same way). *)
let probes =
  [
    {
      name = "dom-attr:mpk";
      bench = bench "dom-attr" (Dom_scripts.dom_attr ~iters:40);
      mode = Pkru_safe.Config.Mpk;
      mitigation = None;
      census_every = None;
      tier = Engine.Ast_tier;
    };
    {
      name = "dom-create:mpk";
      bench = bench "dom-create" (Dom_scripts.dom_create ~iters:24);
      mode = Pkru_safe.Config.Mpk;
      mitigation = None;
      census_every = None;
      tier = Engine.Ast_tier;
    };
    {
      name = "fft:base";
      bench = bench "fft" (Kernels.fft ~n:64);
      mode = Pkru_safe.Config.Base;
      mitigation = None;
      census_every = None;
      tier = Engine.Ast_tier;
    };
    {
      name = "richards:mpk";
      bench = bench "richards" (Kernels.richards ~iterations:12);
      mode = Pkru_safe.Config.Mpk;
      mitigation = None;
      census_every = None;
      tier = Engine.Ast_tier;
    };
    {
      name = "dom-attr:mpk:emulate";
      bench = bench "dom-attr-mitigated" (Dom_scripts.dom_attr ~iters:40);
      mode = Pkru_safe.Config.Mpk;
      mitigation = Some Runtime.Mitigator.Emulate;
      census_every = None;
      tier = Engine.Ast_tier;
    };
    {
      name = "dom-attr:mpk:census";
      bench = bench "dom-attr-censused" (Dom_scripts.dom_attr ~iters:40);
      mode = Pkru_safe.Config.Mpk;
      mitigation = None;
      census_every = Some 64;
      tier = Engine.Ast_tier;
    };
    {
      name = "richards:bc-ref";
      bench = bench "richards-bc-ref" (Kernels.richards ~iterations:12);
      mode = Pkru_safe.Config.Mpk;
      mitigation = None;
      census_every = None;
      tier = Engine.Bytecode_tier;
    };
    {
      name = "richards:bc-threaded";
      bench = bench "richards-bc-threaded" (Kernels.richards ~iterations:12);
      mode = Pkru_safe.Config.Mpk;
      mitigation = None;
      census_every = None;
      tier = Engine.Threaded_tier;
    };
  ]

let probe_names = List.map (fun p -> p.name) probes

(* Probe pairs the baseline pins cycle-equal: each optimisation's
   architectural invisibility, expressed as data.  Checked by
   [twin_mismatches] on every fresh run too, so a divergence is caught
   even before a baseline comparison. *)
let twin_pairs =
  [
    ("dom-attr:mpk", "dom-attr:mpk:emulate");
    ("dom-attr:mpk", "dom-attr:mpk:census");
    ("richards:bc-ref", "richards:bc-threaded");
  ]

let twin_mismatches results =
  let find n = List.find_opt (fun r -> r.p_name = n) results in
  List.filter
    (fun (a, b) ->
      match (find a, find b) with
      | Some ra, Some rb ->
        ra.p_cycles <> rb.p_cycles || ra.p_transitions <> rb.p_transitions
      | _ -> false)
    twin_pairs

let run_probe p =
  let profile =
    Runner.profile_suite { Bench_def.suite_name = "sentinel"; benches = [ p.bench ] }
  in
  let w0 = Gc.minor_words () in
  let m =
    Runner.run_config ?mitigation:p.mitigation ?census_every:p.census_every
      ~engine_tier:p.tier ~mode:p.mode ~profile p.bench
  in
  let words = Gc.minor_words () -. w0 in
  {
    p_name = p.name;
    p_tier = tier_name p.tier;
    p_cycles = m.Runner.cycles;
    p_transitions = m.Runner.transitions;
    p_minor_words = int_of_float words;
  }

let run_probes () = List.map run_probe probes

(* --- commit stamping --- *)

(* `git rev-parse HEAD`, tolerating environments with no git or no repo:
   artifacts are still valid, just unstamped. *)
let commit_hash () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when String.length line >= 7 -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* --- baseline (de)serialisation --- *)

let result_to_json r =
  let open Util.Json in
  Obj
    [
      ("name", String r.p_name);
      ("tier", String r.p_tier);
      ("cycles", Int r.p_cycles);
      ("transitions", Int r.p_transitions);
      ("minor_words", Int r.p_minor_words);
    ]

let result_of_json j =
  let open Util.Json in
  {
    p_name = to_str (member "name" j);
    p_tier =
      (match member "tier" j with
      | String s -> s
      | _ | (exception Not_found) -> "ast" (* pre-tier baselines *));
    p_cycles = to_int (member "cycles" j);
    p_transitions = to_int (member "transitions" j);
    p_minor_words = to_int (member "minor_words" j);
  }

type baseline = {
  b_commit : string;
  b_ocaml : string;
  b_probes : probe_result list;
}

let baseline ?commit probes =
  {
    b_commit = (match commit with Some c -> c | None -> commit_hash ());
    b_ocaml = Sys.ocaml_version;
    b_probes = probes;
  }

let baseline_to_json b =
  let open Util.Json in
  Obj
    [
      ("schema", String schema_version);
      ("commit", String b.b_commit);
      ("ocaml", String b.b_ocaml);
      ("probes", List (List.map result_to_json b.b_probes));
    ]

let baseline_of_json j =
  let open Util.Json in
  (match member "schema" j with
  | String s when s = schema_version -> ()
  | String s ->
    invalid_arg
      (Printf.sprintf "Sentinel: baseline schema %S, this build expects %S" s schema_version)
  | _ -> invalid_arg "Sentinel: baseline has no schema field"
  | exception Not_found -> invalid_arg "Sentinel: baseline has no schema field");
  let field name =
    match member name j with String s -> s | _ | (exception Not_found) -> "unknown"
  in
  {
    b_commit = field "commit";
    b_ocaml = field "ocaml";
    b_probes = List.map result_of_json (to_list (member "probes" j));
  }

let minor_words_compared b = b.b_ocaml = Sys.ocaml_version

(* --- comparison --- *)

type verdict =
  | Match
  | Cycle_drift of { base_cycles : int; base_transitions : int }
  | Minor_words_up of { base_minor_words : int }
  | Minor_words_down of { base_minor_words : int }
  | Missing_in_baseline
  | Missing_in_run

let is_regression = function
  | Cycle_drift _ | Minor_words_up _ | Missing_in_run -> true
  | Match | Minor_words_down _ | Missing_in_baseline -> false

let is_warning = function
  | Minor_words_down _ | Missing_in_baseline -> true
  | Match | Cycle_drift _ | Minor_words_up _ | Missing_in_run -> false

let compare_results ~baseline fresh =
  let words = minor_words_compared baseline in
  let verdict_for (b : probe_result) (f : probe_result) =
    if b.p_cycles <> f.p_cycles || b.p_transitions <> f.p_transitions then
      Cycle_drift { base_cycles = b.p_cycles; base_transitions = b.p_transitions }
    else if words && f.p_minor_words > b.p_minor_words then
      Minor_words_up { base_minor_words = b.p_minor_words }
    else if words && f.p_minor_words < b.p_minor_words then
      Minor_words_down { base_minor_words = b.p_minor_words }
    else Match
  in
  let fresh_verdicts =
    List.map
      (fun (f : probe_result) ->
        match List.find_opt (fun (b : probe_result) -> b.p_name = f.p_name) baseline.b_probes with
        | None -> (f.p_name, f, Missing_in_baseline)
        | Some b -> (f.p_name, f, verdict_for b f))
      fresh
  in
  let missing =
    List.filter_map
      (fun (b : probe_result) ->
        if List.exists (fun (f : probe_result) -> f.p_name = b.p_name) fresh then None
        else Some (b.p_name, b, Missing_in_run))
      baseline.b_probes
  in
  fresh_verdicts @ missing

let render_comparison ~baseline verdicts =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "bench --compare against baseline %s\n" baseline.b_commit);
  if not (minor_words_compared baseline) then
    Buffer.add_string buf
      (Printf.sprintf
         "  minor words not compared: baseline built with OCaml %s, this build with %s\n"
         baseline.b_ocaml Sys.ocaml_version);
  List.iter
    (fun (name, (r : probe_result), verdict) ->
      let line =
        match verdict with
        | Match ->
          Printf.sprintf "  ok    %-22s %10d cycles  %5d transitions  %9d minor words" name
            r.p_cycles r.p_transitions r.p_minor_words
        | Cycle_drift { base_cycles; base_transitions } ->
          Printf.sprintf
            "  DRIFT %-22s cycles %d -> %d (%+d), transitions %d -> %d — deterministic \
             simulation changed"
            name base_cycles r.p_cycles (r.p_cycles - base_cycles) base_transitions
            r.p_transitions
        | Minor_words_up { base_minor_words } ->
          Printf.sprintf "  DRIFT %-22s minor words %d -> %d (%+d) — the host allocates more"
            name base_minor_words r.p_minor_words (r.p_minor_words - base_minor_words)
        | Minor_words_down { base_minor_words } ->
          Printf.sprintf
            "  re-pin %-21s minor words %d -> %d (%+d) — lower than the baseline; re-pin \
             with --baseline-out"
            name base_minor_words r.p_minor_words (r.p_minor_words - base_minor_words)
        | Missing_in_baseline ->
          Printf.sprintf "  warn  %-22s not in baseline (new probe?) — re-generate with \
                          --baseline-out" name
        | Missing_in_run -> Printf.sprintf "  DRIFT %-22s in baseline but not produced by this run" name
      in
      Buffer.add_string buf (line ^ "\n"))
    verdicts;
  let regressions = List.filter (fun (_, _, v) -> is_regression v) verdicts in
  let warnings = List.filter (fun (_, _, v) -> is_warning v) verdicts in
  Buffer.add_string buf
    (Printf.sprintf "%d probes: %d ok, %d drift, %d warnings\n" (List.length verdicts)
       (List.length verdicts - List.length regressions - List.length warnings)
       (List.length regressions) (List.length warnings));
  Buffer.contents buf

let has_regression verdicts = List.exists (fun (_, _, v) -> is_regression v) verdicts
