(* perfbench: the host-time benchmark of the PKRU-Safe simulator.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--tiny] [--inject-mismatch]

   Sets up the workload's inputs (several times, for the set-up timing),
   runs one warm-up pass, then measured passes for S seconds.  The last
   line of standard output is one JSON object: the end-to-end metrics
   with --trace 0, the per-layer ledger with --trace 1.  README.md in
   this directory explains the workloads and every metric. *)

open Workloads
module Env = Pkru_safe.Env
module Config = Pkru_safe.Config

let now = Ledger.now
let median xs = if xs = [] then 0.0 else Util.Stats.percentile 50.0 xs
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Interference from other tenants of the host only ever slows work
   down, and on a shared machine it comes in phases of seconds, so a run
   reports each timing from the fastest repetitions it saw: every step of
   a pass (a profiling run, an operation, a fleet batch) is timed in each
   pass, and a pass-level figure sums each step's fastest time. *)
let fastest = List.fold_left Float.min Float.infinity

(* Element-wise minimum of equally long lists, one per pass. *)
let fastest_each = function
  | [] -> []
  | first :: rest -> List.fold_left (List.map2 Float.min) first rest

let sum = List.fold_left ( +. ) 0.0

(* {1 Operations}

   An operation is one program under one build configuration: a fresh
   [Env], a browser, the page load and the scripts.  Page construction is
   set-up for the simulated machine (counters are reset after it), but
   it is host time the operation pays, so [ms] covers all of it. *)

type program = {
  name : string;
  page : string;
  scripts : string list;
  seed : int;  (** engine Math.random seed *)
  checksummed : bool;  (** prints a [name:checksum] line *)
}

let of_bench (b : Bench_def.bench) =
  { name = b.name; page = b.page; scripts = [ b.script ]; seed = b.engine_seed; checksummed = true }

let of_job (j : Fleet.job) =
  {
    name = j.job_name;
    page = j.job_page;
    scripts = j.job_scripts;
    seed = j.job_seed;
    checksummed = j.job_name = Inputs.fleet_kernel_name;
  }

type op = {
  ms : float;  (** host ms for the whole operation *)
  exec_s : float;  (** host seconds inside the scripts *)
  cycles : int;
  transitions : int;
  output : string list;
  error : string option;
}

let modes = [ Config.Base; Config.Alloc; Config.Mpk ]
let mode_key m = String.lowercase_ascii (Config.mode_to_string m)

(* Counts read from public stats after the scripts ran. *)
let record_op l ~mode env browser ~(tlb0 : Sim.Tlb.stats) ~cycles ~transitions =
  let engine = Browser.engine browser in
  let tlb = Sim.Machine.tlb_stats (Env.machine env) in
  let ic = Engine.Eval.ic_stats (Engine.evaluator engine) in
  let ts = Engine.threaded_stats engine in
  let pk = Env.pkalloc env in
  let mt_stats = Allocators.Pkalloc.trusted_stats pk in
  let mu_stats = Allocators.Pkalloc.untrusted_stats pk in
  let mt, mu = Env.t_heap_bytes env in
  List.iter
    (fun (name, n) -> Ledger.count l name n)
    [
      ("engine.steps", Engine.Eval.steps (Engine.evaluator engine));
      ("engine.var_ic_hits", ic.var_hits);
      ("engine.var_ic_misses", ic.var_misses);
      ("engine.prop_ic_hits", ts.prop_hits);
      ("engine.prop_ic_misses", ts.prop_misses);
      ("machine.tlb_hits", tlb.hits - tlb0.hits);
      ("machine.tlb_misses", tlb.misses - tlb0.misses);
      ("machine.tlb_flushes", tlb.flushes - tlb0.flushes);
      ("machine.sim_cycles." ^ mode_key mode, cycles);
      ("gate.transitions", transitions);
      ("allocators.allocs", mt_stats.allocs + mu_stats.allocs);
      ("allocators.mt_bytes", mt);
      ("allocators.mu_bytes", mu);
      ("runner.sites_moved", if mode = Config.Mpk then Env.sites_moved env else 0);
    ];
  Ledger.peak l "allocators.peak_live_bytes"
    (float_of_int
       (Allocators.Alloc_stats.peak_live_bytes mt_stats
       + Allocators.Alloc_stats.peak_live_bytes mu_stats))

(* [wrap env exec] runs the scripts; [census] starts the census table
   before the page load, so page objects are tracked too. *)
let run_op ?ledger ?tier ?(census = false) ?(wrap = fun _ exec -> exec ()) ~profile ~mode p =
  let t0 = now () in
  try
    let env =
      match Ledger.span ledger "env.create" (fun () -> Env.create ~profile (Config.make mode)) with
      | Ok env -> env
      | Error msg -> failwith ("Env.create: " ^ msg)
    in
    if census then Env.track_census env;
    let browser =
      Ledger.span ledger "browser.page" (fun () ->
          let browser = Browser.create ~engine_seed:p.seed env in
          Browser.load_page browser p.page;
          browser)
    in
    Env.reset_counters env;
    Engine.reset_stats (Browser.engine browser);
    Browser.reset_selector_stats browser;
    let tlb0 = Sim.Machine.tlb_stats (Env.machine env) in
    let exec () = List.iter (fun s -> ignore (Browser.exec_script ?tier browser s)) p.scripts in
    let e0 = now () in
    Ledger.span ledger "engine.exec" (fun () -> wrap env exec);
    let exec_s = now () -. e0 in
    let cycles = Env.cycles env and transitions = Env.transitions env in
    Option.iter (fun l -> record_op l ~mode env browser ~tlb0 ~cycles ~transitions) ledger;
    let output = Browser.console browser in
    { ms = (now () -. t0) *. 1e3; exec_s; cycles; transitions; output; error = None }
  with e ->
    {
      ms = (now () -. t0) *. 1e3;
      exec_s = 0.0;
      cycles = 0;
      transitions = 0;
      output = [];
      error = Some (Printexc.to_string e);
    }

let checksum_line line =
  match String.index_opt line ':' with
  | Some i when i > 0 && i + 1 < String.length line ->
    String.for_all
      (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true | _ -> false)
      (String.sub line 0 i)
    && (match line.[i + 1] with '0' .. '9' | '-' -> true | _ -> false)
  | _ -> false

(* The verdict on one program's base/alloc/mpk operations: an operation
   fails when it raised, when the program should print a name:checksum
   line and it did not, or when the three builds printed different
   output (then all three fail). *)
let judge p ops =
  let agree = List.for_all (fun o -> o.output = (List.hd ops).output) ops in
  List.filter_map
    (fun (mode, o) ->
      let fail why = Some (Printf.sprintf "%s/%s: %s" p.name (mode_key mode) why) in
      match o.error with
      | Some e -> fail ("raised " ^ e)
      | None when not agree -> fail "output differs across base/alloc/mpk"
      | None when p.checksummed && not (List.exists checksum_line o.output) ->
        fail "no name:checksum line"
      | None -> None)
    (List.combine modes ops)

(* {1 Passes} *)

type pass = {
  wall : float;  (** host seconds for the pass *)
  op_ms : float list;
  op_exec_s : float list;  (** per operation, host seconds inside its scripts *)
  profile_s : float list;  (** per suite, host seconds of its profiling runs *)
  attempted : int;
  errors : string list;  (** one line per failed operation *)
  cycles : int;  (** simulated cycles retired by every operation *)
  transitions : int;
  minor_mwords : float;
  runtime_pct : (float * float) option;  (** mean mpk and alloc runtime, % of base *)
  suite_overheads : (string * float * float) list;  (** suite, mpk %, alloc % *)
  fleet : Fleet.result list;  (** one per [Fleet.run] batch *)
}

(* The pass time rebuilt from each step's fastest run. *)
let rebuilt_wall passes =
  (sum (fastest_each (List.map (fun (p : pass) -> p.op_ms) passes)) /. 1e3)
  +. sum (fastest_each (List.map (fun (p : pass) -> p.profile_s) passes))

(* dom-observed arms a sink with spans, the sampler and the census at
   fixed periods around every script; the provider closures handed to the
   sampler and census are the benchmark's own, timed in a traced pass.
   The census still does most of the work at this period, and a pass stays
   short enough for many passes per run. *)
let sample_every = 4096
let census_every = 8192

let observe ledger env exec =
  let sink = Telemetry.Sink.create () in
  let sampler = Telemetry.Sampler.create ~every:sample_every in
  let census = Telemetry.Census.create ~every:census_every () in
  let census_provider =
    Ledger.timed ledger ~total:"telemetry.census_s" ~each:"telemetry.census_snapshot_us"
      (Env.census_snapshot env)
  in
  let sampler_provider =
    Ledger.timed ledger ~total:"telemetry.sampler_s" (fun () -> Env.stack_frames env)
  in
  Telemetry.Sink.with_sink sink (fun () ->
      Telemetry.Census.with_census ~provider:census_provider census (fun () ->
          Telemetry.Sampler.with_sampler ~provider:sampler_provider sampler exec));
  Option.iter
    (fun l ->
      Ledger.count l "telemetry.events" (Telemetry.Sink.events_total sink);
      Ledger.count l "telemetry.census_snapshots" (Telemetry.Census.taken_total census))
    ledger

let overhead ~base x =
  Util.Stats.percent_overhead ~baseline:(float_of_int base) ~measured:(float_of_int x)

let suite_pass ?ledger ~observed ~inject (suites : Bench_def.suite list) =
  let wrap = if observed then observe ledger else fun _ exec -> exec () in
  let w0 = Gc.minor_words () and t0 = now () in
  let runs =
    List.map
      (fun (suite : Bench_def.suite) ->
        let p0 = now () in
        let profile = Ledger.span ledger "runner.profile" (fun () -> Runner.profile_suite suite) in
        let profile_s = now () -. p0 in
        ( suite.suite_name,
          profile_s,
          List.map
            (fun b ->
              let p = of_bench b in
              let run mode = run_op ?ledger ~census:observed ~wrap ~profile ~mode p in
              (p, List.map run modes))
            suite.benches ))
      suites
  in
  let wall = now () -. t0 in
  let minor_mwords = (Gc.minor_words () -. w0) /. 1e6 in
  (* The self-test's injected fault: one extra line in the first
     program's alloc output. *)
  let runs =
    if not inject then runs
    else
      List.mapi
        (fun si (name, profile_s, benches) ->
          let corrupt bi (p, ops) =
            if si = 0 && bi = 0 then
              let corrupt i o = if i = 1 then { o with output = "injected" :: o.output } else o in
              (p, List.mapi corrupt ops)
            else (p, ops)
          in
          (name, profile_s, List.mapi corrupt benches))
        runs
  in
  let benches = List.concat_map (fun (_, _, benches) -> benches) runs in
  let ops = List.concat_map snd benches in
  let total f = List.fold_left (fun acc o -> acc + f o) 0 ops in
  (* Per-program overheads, over programs whose three builds all ran. *)
  let overheads benches =
    List.filter_map
      (fun (_, ops) ->
        match ops with
        | [ base; alloc; mpk ] when List.for_all (fun o -> o.error = None) ops ->
          Some (overhead ~base:base.cycles mpk.cycles, overhead ~base:base.cycles alloc.cycles)
        | _ -> None)
      benches
  in
  let means ohs = (Util.Stats.mean (List.map fst ohs), Util.Stats.mean (List.map snd ohs)) in
  let mpk, alloc = means (overheads benches) in
  {
    wall;
    op_ms = List.map (fun o -> o.ms) ops;
    op_exec_s = List.map (fun o -> o.exec_s) ops;
    profile_s = List.map (fun (_, s, _) -> s) runs;
    attempted = List.length ops;
    errors = List.concat_map (fun (p, ops) -> judge p ops) benches;
    cycles = total (fun o -> o.cycles);
    transitions = total (fun o -> o.transitions);
    minor_mwords;
    runtime_pct = Some (100.0 +. mpk, 100.0 +. alloc);
    suite_overheads =
      List.map
        (fun (name, _, benches) ->
          let mpk, alloc = means (overheads benches) in
          (name, mpk, alloc))
        runs;
    fleet = [];
  }

(* {2 The fleet} *)

(* Every session of one job must retire the same cycles, transitions and
   output checksum, in every batch and pass: [seen] keeps the first. *)
let fleet_pass ~seen (input : Inputs.fleet_input) =
  let w0 = Gc.minor_words () and t0 = now () in
  let runs =
    List.map
      (fun jobs ->
        let b0 = now () in
        let r =
          Fleet.run ~mode:Config.Mpk ~profile:input.profile ~cpus:Inputs.fleet_cpus
            ~timeslice:Inputs.fleet_timeslice ~sessions:input.batch_sessions jobs
        in
        (Array.of_list jobs, r, now () -. b0))
      input.batches
  in
  let wall = now () -. t0 in
  let minor_mwords = (Gc.minor_words () -. w0) /. 1e6 in
  let check jobs (s : Fleet.session_result) =
    let job = jobs.(s.sr_index mod Array.length jobs) in
    let key = (s.sr_cycles, s.sr_transitions, s.sr_checksum) in
    match s.sr_outcome with
    | Fleet.Completed -> (
      match Hashtbl.find_opt seen job.Fleet.job_name with
      | None ->
        Hashtbl.add seen job.Fleet.job_name key;
        None
      | Some k when k = key -> None
      | Some _ ->
        Some (s.sr_name ^ ": cycles/transitions/output differ from its job's other sessions"))
    | outcome -> Some (s.sr_name ^ ": " ^ Fleet.outcome_to_string outcome)
  in
  let results = List.concat_map (fun (_, r, _) -> r.Fleet.r_results) runs in
  {
    wall;
    op_ms = List.map (fun (_, _, w) -> w *. 1e3) runs;
    op_exec_s = List.map (fun (_, _, w) -> w) runs;
    profile_s = [];
    attempted = List.length results;
    errors =
      List.concat_map (fun (jobs, r, _) -> List.filter_map (check jobs) r.Fleet.r_results) runs;
    cycles = List.fold_left (fun acc (s : Fleet.session_result) -> acc + s.sr_cycles) 0 results;
    transitions =
      List.fold_left (fun acc (s : Fleet.session_result) -> acc + s.sr_transitions) 0 results;
    minor_mwords;
    runtime_pct = None;
    suite_overheads = [];
    fleet = List.map (fun (_, r, _) -> r) runs;
  }

(* The same sessions back to back through Env/Browser, traced: the
   fleet's per-layer ledger, and the baseline for its scheduling cost. *)
let back_to_back ledger (input : Inputs.fleet_input) (fleet : Fleet.result list) =
  let t0 = now () in
  let errors =
    List.concat
      (List.map2
         (fun jobs (r : Fleet.result) ->
           let jobs = Array.of_list (List.map of_job jobs) in
           List.filter_map
             (fun (s : Fleet.session_result) ->
               let o =
                 run_op ~ledger ~profile:input.profile ~mode:Config.Mpk
                   jobs.(s.sr_index mod Array.length jobs)
               in
               let same = o.cycles = s.sr_cycles && o.transitions = s.sr_transitions in
               if o.error = None && same then None
               else Some (s.sr_name ^ ": back-to-back run differs from the fleet session"))
             r.r_results)
         input.batches fleet)
  in
  (now () -. t0, errors)

(* {1 Workloads} *)

type workload = Paper_compute | Paper_dom | Dom_observed | Fleet_mpk

let workloads =
  [
    ("paper-compute", Paper_compute);
    ("paper-dom", Paper_dom);
    ("dom-observed", Dom_observed);
    ("fleet-mpk", Fleet_mpk);
  ]

type check = {
  c_attempted : int;
  c_errors : string list;
}

(* A workload after set-up. *)
type prepared = {
  pass : ?ledger:Ledger.t -> unit -> pass;
  companion : Ledger.t -> pass -> check;
      (** runs beside each traced pass, recording into its ledger *)
  programs : (program * Runtime.Profile.t Lazy.t * int) list;
      (** distinct programs with their profile and operations per pass per build *)
  reference : Ledger.t -> (float * float) option * check;
      (** once after the passes: runtime percentages the passes lack *)
  compared : bool;  (** its suites' overheads are compared with the paper's *)
}

let no_check = { c_attempted = 0; c_errors = [] }

let suite_workload ~observed ~inject (suites : Bench_def.suite list) =
  let companion ledger _ =
    (* dom-observed: the same programs with nothing armed, for
       telemetry.overhead_x. *)
    if observed then
      Ledger.set ledger "telemetry.bare_wall_s"
        (suite_pass ~observed:false ~inject:false suites).wall;
    no_check
  in
  {
    pass = (fun ?ledger () -> suite_pass ?ledger ~observed ~inject suites);
    companion;
    programs =
      List.concat_map
        (fun (suite : Bench_def.suite) ->
          let profile = lazy (Runner.profile_suite suite) in
          List.map (fun b -> (of_bench b, profile, 1)) suite.benches)
        suites;
    reference = (fun _ -> (None, no_check));
    compared = not observed;
  }

let fleet_workload (input : Inputs.fleet_input) =
  let seen = Hashtbl.create 8 in
  let jobs = List.hd input.batches in
  (* Every batch gives each job the same number of sessions. *)
  let weight = List.length input.batches * input.batch_sessions / List.length jobs in
  let programs = List.map (fun job -> (of_job job, Lazy.from_val input.profile, weight)) jobs in
  let companion ledger traced =
    let wall, errors = back_to_back ledger input traced.fleet in
    let mean f = Util.Stats.mean (List.map f traced.fleet) in
    List.iter
      (fun (name, v) -> Ledger.set ledger name v)
      [
        ("fleet.sched_overhead_s", traced.wall -. wall);
        ("fleet.vsessions_per_s", mean (fun r -> r.r_sessions_per_sec));
        ("fleet.vlat_p99_us", mean (fun r -> r.r_p99_latency_ns /. 1e3));
        ("fleet.yields", mean (fun r -> float_of_int r.r_yields));
        ("fleet.steals", mean (fun r -> float_of_int r.r_steals));
      ];
    { c_attempted = traced.attempted; c_errors = errors }
  in
  (* Each job once per build: its mpk run must match every fleet session
     of the job, and the base/alloc runs give the fleet's runtime
     percentages, weighted by sessions per job. *)
  let reference l =
    let refs =
      List.map
        (fun (p, _, w) ->
          let ops = List.map (fun mode -> run_op ~profile:input.profile ~mode p) modes in
          let mpk : op = List.nth ops 2 in
          let matches =
            match Hashtbl.find_opt seen p.name with
            | Some (cycles, transitions, _) -> mpk.cycles = cycles && mpk.transitions = transitions
            | None -> false
          in
          let errors =
            if matches then [] else [ p.name ^ ": fleet sessions differ from its plain mpk run" ]
          in
          (w, ops, judge p ops @ errors))
        programs
    in
    let weighted i =
      List.fold_left
        (fun acc (w, ops, _) ->
          acc +. (float_of_int w *. float_of_int (List.nth ops i : op).cycles))
        0.0 refs
    in
    Ledger.set l "machine.sim_cycles.base" (weighted 0);
    Ledger.set l "machine.sim_cycles.alloc" (weighted 1);
    ( Some (100.0 *. weighted 2 /. weighted 0, 100.0 *. weighted 1 /. weighted 0),
      { c_attempted = 3 * List.length jobs; c_errors = List.concat_map (fun (_, _, e) -> e) refs } )
  in
  {
    pass = (fun ?ledger:_ () -> fleet_pass ~seen input);
    companion;
    programs;
    reference;
    compared = false;
  }

let setup workload ~seed ~tiny ~inject =
  match workload with
  | Paper_compute -> suite_workload ~observed:false ~inject (Inputs.paper_compute ~seed ~tiny)
  | Paper_dom -> suite_workload ~observed:false ~inject (Inputs.paper_dom ~seed ~tiny)
  | Dom_observed -> suite_workload ~observed:true ~inject (Inputs.paper_dom ~seed ~tiny)
  | Fleet_mpk -> fleet_workload (Inputs.fleet_mpk ~seed ~tiny)

(* {1 Sweeps of the traced run, once after its passes} *)

(* Lex + parse of every distinct script, on a throwaway engine so no
   measured machine is charged. *)
let parse_sweep l prep =
  List.iter
    (fun (p, _, _) ->
      List.iter
        (fun script ->
          match Env.create (Config.make Config.Base) with
          | Error msg -> failwith ("Env.create: " ^ msg)
          | Ok env -> (
            let heap = Engine.heap (Engine.create env) in
            match Engine.Value.str_of_string heap script with
            | Engine.Value.Str s ->
              Ledger.span (Some l) "engine.parse" (fun () ->
                  ignore (Engine.Parser.parse (Engine.Lexer.tokenize heap s)))
            | _ -> failwith "str_of_string: not a string"))
        p.scripts)
    prep.programs

(* Every program once per engine tier on the base build: host seconds per
   tier, and inline-cache hit rates from the threaded tier.  The tiers are
   observationally equivalent, so their outputs must agree. *)
let tier_sweep l prep =
  let profile = Runtime.Profile.create () in
  let tiers =
    [
      ("ast", Engine.Ast_tier);
      ("bytecode", Engine.Bytecode_tier);
      ("threaded", Engine.Threaded_tier);
    ]
  in
  let errors =
    List.concat_map
      (fun (p, _, _) ->
        let ops =
          List.map
            (fun (key, tier) ->
              let tl = Ledger.create () in
              let o = run_op ~ledger:tl ~tier ~profile ~mode:Config.Base p in
              Ledger.add l ("engine.exec_s." ^ key) (Ledger.get tl "engine.exec_s");
              if key = "threaded" then
                List.iter
                  (fun k -> Ledger.add l k (Ledger.get tl k))
                  [
                    "engine.var_ic_hits";
                    "engine.var_ic_misses";
                    "engine.prop_ic_hits";
                    "engine.prop_ic_misses";
                  ];
              o)
            tiers
        in
        if List.for_all (fun o -> o.error = None && o.output = (List.hd ops).output) ops then []
        else [ p.name ^ ": engine tiers disagree" ])
      prep.programs
  in
  { c_attempted = 3 * List.length prep.programs; c_errors = errors }

(* Simulated cycles inside gate-kind spans of one pass's mpk operations,
   from a sink with spans armed around each program once. *)
let gate_sweep l prep =
  let errors =
    List.concat_map
      (fun (p, profile, w) ->
        let sink = Telemetry.Sink.create ~span_capacity:(1 lsl 20) () in
        let o =
          run_op ~profile:(Lazy.force profile) ~mode:Config.Mpk
            ~wrap:(fun _ exec -> Telemetry.Sink.with_sink sink exec)
            p
        in
        let spans = Telemetry.Sink.spans sink in
        let cycles =
          List.fold_left
            (fun acc (r : Telemetry.Span.record) ->
              if r.kind = Telemetry.Span.Gate then acc + Telemetry.Span.duration r else acc)
            0 (Telemetry.Span.closed spans)
        in
        Ledger.count l "gate.sim_cycles" (w * cycles);
        if o.error = None && Telemetry.Span.dropped spans = 0 then []
        else [ p.name ^ ": gate span sweep failed" ])
      prep.programs
  in
  { c_attempted = List.length prep.programs; c_errors = errors }

(* {1 Measurement} *)

(* Runs [iteration] until the next one would end past [seconds]; at
   least once. *)
let measure ~seconds iteration =
  let start = now () in
  let rec go acc =
    let t0 = now () in
    let r = iteration () in
    let t1 = now () in
    if t1 -. start +. (t1 -. t0) <= seconds then go (r :: acc) else List.rev (r :: acc)
  in
  go []

(* Set-up is timed once before the warm-up pass and once more beside
   every measured pass, so its median sees the same host conditions as
   the passes. *)
let timed_setup workload ~seed ~tiny ~inject =
  let t0 = now () in
  let prep = setup workload ~seed ~tiny ~inject in
  (prep, now () -. t0)

(* The paper's Table 1 (whole suites) or Table 2 (Dromaeo sub-suites) row
   of a suite: which table, mpk %, alloc %. *)
let paper_row suite =
  match List.find_opt (fun (r : Paper.table1_row) -> r.t1_suite = suite) Paper.table1 with
  | Some r -> Some ("table1", r.t1_mpk_pct, r.t1_alloc_pct)
  | None ->
    List.find_opt (fun (r : Paper.table2_row) -> r.t2_sub = suite) Paper.table2
    |> Option.map (fun (r : Paper.table2_row) -> ("table2", r.t2_mpk_pct, r.t2_alloc_pct))

let paper_rows prep (p : pass) =
  if not prep.compared then []
  else
    List.filter_map
      (fun (suite, mpk, alloc) ->
        Option.map (fun (table, pm, pa) -> (suite, table, mpk, pm, alloc, pa)) (paper_row suite))
      p.suite_overheads

let print_paper rows =
  if rows = [] then
    print_endline "paper: this workload has no reference in the paper; no error figure is given"
  else begin
    Printf.printf "paper: %-8s %-7s %10s %10s %8s %10s %10s %8s\n" "suite" "table" "mpk %" "paper"
      "err pp" "alloc %" "paper" "err pp";
    List.iter
      (fun (suite, table, mpk, pm, alloc, pa) ->
        Printf.printf "paper: %-8s %-7s %10.3f %10.2f %8.3f %10.3f %10.2f %8.3f\n" suite table mpk
          pm
          (Float.abs (mpk -. pm))
          alloc pa
          (Float.abs (alloc -. pa)))
      rows
  end

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-34s %20s %s\n" name (json_number v) unit)
    metrics;
  let field (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", " (List.map field metrics))

let total_s passes steps = sum (fastest_each (List.map steps passes))

let end_to_end ~setups ~heap_peak_mb ~runtime_pct:(mpk_pct, alloc_pct) ~warm ~plain ~ok_pct =
  let op_ms = fastest_each (List.map (fun (p : pass) -> p.op_ms) plain) in
  [
    ("setup_s", median setups, "s");
    ("wall_s", rebuilt_wall plain, "s");
    ("op_ms_p50", median op_ms, "ms");
    ("op_ms_p90", Util.Stats.percentile 90.0 op_ms, "ms");
    ( "sim_mcycles_per_s",
      ratio (float_of_int warm.cycles) (total_s plain (fun p -> p.op_exec_s)) /. 1e6,
      "Mcycles/s" );
    ( "sessions_per_s",
      ratio (float_of_int warm.attempted) (total_s plain (fun p -> p.op_ms) /. 1e3),
      "1/s" );
    ("sim_cycles", float_of_int warm.cycles, "cycles");
    ("mpk_runtime_pct", mpk_pct, "%");
    ("alloc_runtime_pct", alloc_pct, "%");
    ("minor_mwords", median (List.map (fun (p : pass) -> p.minor_mwords) plain), "Mwords");
    ("heap_peak_mb", heap_peak_mb, "MB");
    ("ok_ops_pct", ok_pct, "%");
  ]

(* The ledger: per-pass values are medians over the traced passes; sweep
   values were measured once. *)
let ledger_metrics ~workload ~plain ~traced ~sweep ~gc_pauses ~paper =
  let ledgers = List.map (fun (_, l, _) -> l) traced in
  let per f = median (List.map f ledgers) in
  let m name = per (fun l -> Ledger.get l name) in
  let s name = Ledger.get sweep name in
  let hit_rate get hits misses = ratio (get hits) (get hits +. get misses) in
  let fastest_wall passes = fastest (List.map (fun (p : pass) -> p.wall) passes) in
  let err f = if paper = [] then 0.0 else Util.Stats.mean (List.map f paper) in
  [
    ("runner.profile_s", m "runner.profile_s", "s");
    ("runner.profile_minor_mwords", m "runner.profile_minor_mwords", "Mwords");
    ("runner.sites_moved", m "runner.sites_moved", "count");
    ("env.create_s", m "env.create_s", "s");
    ("browser.page_s", m "browser.page_s", "s");
    ("browser.page_minor_mwords", m "browser.page_minor_mwords", "Mwords");
    ("engine.parse_s", s "engine.parse_s", "s");
    ("engine.exec_s", m "engine.exec_s", "s");
    ("engine.exec_minor_mwords", m "engine.exec_minor_mwords", "Mwords");
    ("engine.steps", m "engine.steps", "count");
    ("engine.var_ic_hit_rate", hit_rate s "engine.var_ic_hits" "engine.var_ic_misses", "ratio");
    ("engine.prop_ic_hit_rate", hit_rate s "engine.prop_ic_hits" "engine.prop_ic_misses", "ratio");
    ("engine.exec_s.ast", s "engine.exec_s.ast", "s");
    ("engine.exec_s.bytecode", s "engine.exec_s.bytecode", "s");
    ("engine.exec_s.threaded", s "engine.exec_s.threaded", "s");
    ( "machine.tlb_hit_rate",
      per (fun l -> hit_rate (Ledger.get l) "machine.tlb_hits" "machine.tlb_misses"),
      "ratio" );
    ("machine.tlb_flushes", m "machine.tlb_flushes", "count");
    (* The fleet's base and alloc cycles come from its reference runs. *)
    ( "machine.sim_cycles.base",
      m "machine.sim_cycles.base" +. s "machine.sim_cycles.base",
      "cycles" );
    ( "machine.sim_cycles.alloc",
      m "machine.sim_cycles.alloc" +. s "machine.sim_cycles.alloc",
      "cycles" );
    ("machine.sim_cycles.mpk", m "machine.sim_cycles.mpk", "cycles");
    ("allocators.allocs", m "allocators.allocs", "count");
    ("allocators.mt_bytes", m "allocators.mt_bytes", "B");
    ("allocators.mu_bytes", m "allocators.mu_bytes", "B");
    ( "allocators.pct_mu",
      per (fun l -> 100.0 *. hit_rate (Ledger.get l) "allocators.mu_bytes" "allocators.mt_bytes"),
      "%" );
    ("allocators.peak_live_bytes", m "allocators.peak_live_bytes", "B");
    ("gate.transitions", m "gate.transitions", "count");
    ( "gate.transitions_per_mcycle",
      per (fun l ->
          ratio (Ledger.get l "gate.transitions") (Ledger.get l "machine.sim_cycles.mpk" /. 1e6)),
      "1/Mcycle" );
    ("gate.sim_cycles", s "gate.sim_cycles", "cycles");
    ("telemetry.census_s", m "telemetry.census_s", "s");
    ("telemetry.census_snapshots", m "telemetry.census_snapshots", "count");
    ( "telemetry.census_snapshot_us_p50",
      median (List.concat_map (fun l -> Ledger.samples l "telemetry.census_snapshot_us") ledgers),
      "us" );
    ("telemetry.sampler_s", m "telemetry.sampler_s", "s");
    ("telemetry.events", m "telemetry.events", "count");
    ( "telemetry.overhead_x",
      (if workload = Dom_observed then
         ratio (fastest_wall plain)
           (fastest (List.map (fun l -> Ledger.get l "telemetry.bare_wall_s") ledgers))
       else 0.0),
      "x" );
    ("fleet.vsessions_per_s", m "fleet.vsessions_per_s", "1/s");
    ("fleet.vlat_p99_us", m "fleet.vlat_p99_us", "us");
    ("fleet.yields", m "fleet.yields", "count");
    ("fleet.steals", m "fleet.steals", "count");
    ("fleet.sched_overhead_s", m "fleet.sched_overhead_s", "s");
    ("gc.major_collections", m "gc.major_collections", "count");
    ( "gc.pause_ms_p99",
      (match Gc_pauses.pauses_ms gc_pauses with
      | [] -> 0.0
      | ps -> Util.Stats.percentile 99.0 ps),
      "ms" );
    ( "trace.overhead_pct",
      100.0
      *. (ratio (rebuilt_wall (List.map (fun (p, _, _) -> p) traced)) (rebuilt_wall plain) -. 1.0),
      "%" );
    ("paper.mpk_err_pp", err (fun (_, _, mpk, pm, _, _) -> Float.abs (mpk -. pm)), "pp");
    ("paper.alloc_err_pp", err (fun (_, _, _, _, alloc, pa) -> Float.abs (alloc -. pa)), "pp");
  ]

let run ~workload ~seed ~seconds ~trace ~tiny ~inject =
  let prep, setup0 = timed_setup workload ~seed ~tiny ~inject in
  let warm = prep.pass () in
  (* Peak heap over set-up and one pass: a deterministic point, unlike the
     end of a run whose pass count depends on host speed. *)
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let gc_pauses = if trace then Some (Gc_pauses.create ()) else None in
  let setups = ref [ setup0 ] in
  let iteration () =
    setups := snd (timed_setup workload ~seed ~tiny ~inject) :: !setups;
    let plain = prep.pass () in
    match gc_pauses with
    | None -> (plain, None)
    | Some gcp ->
      let l = Ledger.create ~poll:(fun () -> Gc_pauses.poll gcp) () in
      let majors = (Gc.quick_stat ()).major_collections in
      let traced, check =
        Gc_pauses.recording gcp (fun () ->
            let traced = prep.pass ~ledger:l () in
            (traced, prep.companion l traced))
      in
      Ledger.count l "gc.major_collections" ((Gc.quick_stat ()).major_collections - majors);
      (plain, Some (traced, l, check))
  in
  let iterations = measure ~seconds iteration in
  let plain = List.map fst iterations in
  let traced = List.filter_map snd iterations in
  let sweep = Ledger.create () in
  let runtime_ref, ref_check = prep.reference sweep in
  let sweep_checks =
    if trace then begin
      parse_sweep sweep prep;
      [ gate_sweep sweep prep; tier_sweep sweep prep ]
    end
    else []
  in
  (* Every pass, traced or not, must retire what the warm-up pass did, and
     the measured passes must allocate the same minor-heap words. *)
  let det (p : pass) = (p.cycles, p.transitions, p.runtime_pct) in
  let drift =
    List.filter_map
      (fun (what, (p : pass)) ->
        if det p = det warm then None
        else
          Some (what ^ ": simulated cycles, transitions or overheads differ from the warm-up pass"))
      (List.map (fun p -> ("plain pass", p)) plain
      @ List.map (fun (p, _, _) -> ("traced pass", p)) traced)
    @
    if List.for_all (fun (p : pass) -> p.minor_mwords = (List.hd plain).minor_mwords) plain then []
    else [ "plain passes: minor-heap words differ between passes" ]
  in
  let checks = (ref_check :: sweep_checks) @ List.map (fun (_, _, c) -> c) traced in
  let passes = (warm :: plain) @ List.map (fun (p, _, _) -> p) traced in
  let attempted =
    List.fold_left (fun acc (p : pass) -> acc + p.attempted) 0 passes
    + List.fold_left (fun acc c -> acc + c.c_attempted) 0 checks
  in
  let failures =
    List.concat_map (fun (p : pass) -> p.errors) passes
    @ List.concat_map (fun c -> c.c_errors) checks
  in
  let failed = List.length failures in
  List.iteri (fun i e -> if i < 20 then print_endline ("FAILED " ^ e)) failures;
  List.iter (fun e -> print_endline ("NONDETERMINISTIC " ^ e)) drift;
  let paper = paper_rows prep warm in
  print_paper paper;
  Printf.printf
    "workload %s, seed %d: %d measured pass(es); op_ms over %d operation(s), each its fastest \
     of %d\n"
    (fst (List.find (fun (_, w) -> w = workload) workloads))
    seed (List.length plain) (List.length warm.op_ms) (List.length plain);
  Printf.printf "per pass: wall_s %s | minor_mwords %s\n"
    (String.concat " " (List.map (fun (p : pass) -> Printf.sprintf "%.3f" p.wall) plain))
    (String.concat " " (List.map (fun (p : pass) -> Printf.sprintf "%.6f" p.minor_mwords) plain));
  (match (List.hd plain).fleet with
  | [] -> ()
  | runs ->
    Printf.printf
      "fleet: %.1f real host sessions/s on one host thread | %.1f virtual sessions/s on %d \
       simulated CPUs\n"
      (ratio (float_of_int warm.attempted) (total_s plain (fun p -> p.op_ms) /. 1e3))
      (Util.Stats.mean (List.map (fun (r : Fleet.result) -> r.r_sessions_per_sec) runs))
      Inputs.fleet_cpus);
  let metrics =
    match gc_pauses with
    | None ->
      let runtime_pct =
        match (warm.runtime_pct, runtime_ref) with
        | Some r, _ | None, Some r -> r
        | None, None -> (0.0, 0.0)
      in
      end_to_end ~setups:!setups ~heap_peak_mb ~runtime_pct ~warm ~plain
        ~ok_pct:(100.0 *. float_of_int (attempted - failed) /. float_of_int attempted)
    | Some gc_pauses -> ledger_metrics ~workload ~plain ~traced ~sweep ~gc_pauses ~paper
  in
  emit ~correct:(failed = 0 && drift = []) ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tiny = ref false and inject = ref false in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)");
      ("--tiny", Arg.Set tiny, " two programs per suite, a few fleet sessions (self-test)");
      ("--inject-mismatch", Arg.Set inject, " corrupt one output (self-test)");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  | Some workload ->
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "perfbench: --trace takes 0 or 1";
      exit 2
    end;
    run ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~tiny:!tiny ~inject:!inject
