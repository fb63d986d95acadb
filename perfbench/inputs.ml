(* The benchmark's inputs, generated from the workload seed.

   The suite workloads instantiate the public kernel and DOM-script
   generators with the parameters of the library's Kraken, Octane and
   Dromaeo dom/jslib tables, so the inputs are owned (and regenerated, for
   the set-up timing) by the benchmark itself.  The seed picks every
   engine's Math.random seed and, for the fleet, the job admission
   order. *)

open Workloads

type fleet_input = {
  batches : Fleet.job list list;
      (** one admission order per [Fleet.run]: session [i] runs job [i mod n] *)
  batch_sessions : int;  (** sessions per [Fleet.run] *)
  profile : Runtime.Profile.t;  (** the browsing deployment profile *)
}

let kraken () =
  let page = Dom_scripts.page ~rows:10 in
  let b = Bench_def.bench ~page in
  {
    Bench_def.suite_name = "Kraken";
    benches =
      [
        b "audio-fft" (Kernels.fft ~n:512);
        b "audio-beat-detection" (Kernels.beat_detection ~n:2200);
        b "audio-dft" (Kernels.dft ~n:110);
        b "audio-oscillator" (Kernels.oscillator ~n:420 ~steps:16);
        b "imaging-gaussian-blur" (Kernels.gaussian_blur ~w:46 ~h:36 ~passes:3);
        b "imaging-darkroom" (Kernels.darkroom ~pixels:5200);
        b "imaging-desaturate" (Kernels.desaturate ~pixels:2400);
        b "json-parse-financial" (Kernels.json_parse_kernel ~rows:130);
        b "json-stringify-tinderbox" (Kernels.json_stringify_kernel ~rows:120);
        b "stanford-crypto-aes" (Kernels.crypto_aes ~blocks:56 ~rounds:10);
        b "stanford-crypto-ccm" (Kernels.crypto_ccm ~blocks:64);
        b "stanford-crypto-pbkdf2" (Kernels.crypto_pbkdf2 ~iters:3400);
        b "stanford-crypto-sha256-iterative" (Kernels.crypto_sha ~iters:3200);
        b "ai-astar" (Kernels.astar ~w:30 ~h:30);
      ];
  }

let octane () =
  let page = Dom_scripts.page ~rows:10 in
  let b = Bench_def.bench ~page in
  {
    Bench_def.suite_name = "Octane";
    benches =
      [
        b "Richards" (Kernels.richards ~iterations:300);
        b "DeltaBlue" (Kernels.deltablue ~chain:30 ~iters:240);
        b "Crypto" (Kernels.crypto_aes ~blocks:60 ~rounds:9);
        b "RayTrace" (Kernels.raytrace ~w:30 ~h:22);
        b "EarleyBoyer" (Kernels.earley_boyer ~depth:8 ~iters:12);
        b "RegExp" (Kernels.regexp_scan ~copies:56);
        b "Splay" (Kernels.splay ~nodes:380 ~lookups:520);
        b "SplayLatency" (Kernels.splay ~nodes:180 ~lookups:900);
        b "NavierStokes" (Kernels.navier_stokes ~n:26 ~steps:14);
        b "PdfJS" (Kernels.byte_codec ~name:"pdfjs" ~bytes:1700 ~rounds:8);
        b "Mandreel" (Kernels.float_mix ~n:260 ~iters:34);
        b "MandreelLatency" (Kernels.float_mix ~n:110 ~iters:26);
        b "Gameboy" (Kernels.byte_codec ~name:"gameboy" ~bytes:1300 ~rounds:11);
        b "CodeLoad" (Kernels.codeload ~funcs:230);
        b "Box2D" (Kernels.float_mix ~n:190 ~iters:40);
        b "zlib" (Kernels.byte_codec ~name:"zlib" ~bytes:2100 ~rounds:9);
        b "Typescript" (Kernels.tokenizer ~copies:40);
      ];
  }

let dom () =
  let page = Dom_scripts.page ~rows:24 in
  let b = Bench_def.bench ~page in
  {
    Bench_def.suite_name = "dom";
    benches =
      [
        b "dom-attr" (Dom_scripts.dom_attr ~iters:260);
        b "dom-modify" (Dom_scripts.dom_create ~iters:220);
        b "dom-query" (Dom_scripts.dom_query ~iters:30);
        b "dom-html" (Dom_scripts.dom_html ~iters:70);
        b "dom-traverse" (Dom_scripts.dom_traverse ~iters:60);
        b "dom-style" (Dom_scripts.dom_style ~iters:30);
        b "dom-events" (Dom_scripts.dom_events ~iters:120);
      ];
  }

let jslib () =
  let page = Dom_scripts.page ~rows:24 in
  let b = Bench_def.bench ~page in
  {
    Bench_def.suite_name = "jslib";
    benches =
      [
        b "jslib-toggle" (Dom_scripts.jslib_toggle ~iters:300);
        b "jslib-build" (Dom_scripts.jslib_build ~iters:60);
        b "jslib-query" (Dom_scripts.dom_query ~iters:24);
        b "jslib-attr" (Dom_scripts.dom_attr ~iters:230);
        b "jslib-select" (Dom_scripts.jslib_select ~iters:12);
      ];
  }

(* A tiny run keeps the first two benchmarks of every suite. *)
let shrink ~tiny (suite : Bench_def.suite) =
  if tiny then { suite with benches = List.filteri (fun i _ -> i < 2) suite.benches }
  else suite

let seed_engines rng (suite : Bench_def.suite) =
  {
    suite with
    benches =
      List.map
        (fun (b : Bench_def.bench) -> { b with engine_seed = 1 + Util.Rng.int rng 1_000_000 })
        suite.benches;
  }

(* Each suite is profiled as one corpus, paper-style. *)
let suites ~seed ~tiny makers =
  let rng = Util.Rng.create seed in
  List.map (fun make -> seed_engines rng (shrink ~tiny (make ()))) makers

let paper_compute ~seed ~tiny = suites ~seed ~tiny [ kraken; octane ]
let paper_dom ~seed ~tiny = suites ~seed ~tiny [ dom; jslib ]

(* The compute kernel that rides along with the browsing sessions. *)
let fleet_kernel_name = "fleet-richards"

let fleet_kernel () =
  Fleet.job_of_bench
    (Bench_def.bench ~page:(Dom_scripts.page ~rows:10) fleet_kernel_name
       (Kernels.richards ~iterations:20))

let fleet_cpus = 2
let fleet_timeslice = 1000  (* evaluator ticks: short enough that sessions yield *)

(* One batch per rotation of the seeded job order, so every batch runs
   the same sessions in a different admission order. *)
let fleet_mpk ~seed ~tiny =
  let rng = Util.Rng.create seed in
  let jobs =
    Array.of_list (fleet_kernel () :: List.map Fleet.job_of_session Browsing.sessions)
  in
  Util.Rng.shuffle rng jobs;
  let jobs =
    Array.to_list
      (Array.map (fun (j : Fleet.job) -> { j with job_seed = 1 + Util.Rng.int rng 1_000_000 }) jobs)
  in
  let n = List.length jobs in
  let rotate k = List.filteri (fun i _ -> i >= k) jobs @ List.filteri (fun i _ -> i < k) jobs in
  {
    batches = List.init (if tiny then 1 else n) rotate;
    batch_sessions = (if tiny then 2 else 16) * n;  (* a multiple of the job count *)
    profile = Browsing.deployment_profile ();
  }
