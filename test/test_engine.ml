(* Tests for the MiniJS engine: lexer, parser, evaluator, machine-backed
   values, builtins and host functions. *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let fresh_engine ?seed () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  Engine.create ?seed env

let eval_num src =
  let e = fresh_engine () in
  match Engine.eval_string e src with
  | Engine.Value.Num f -> f
  | v -> Alcotest.fail (Printf.sprintf "expected number, got %s" (Engine.Value.type_name v))

let eval_str src =
  let e = fresh_engine () in
  let v = Engine.eval_string e src in
  Engine.Value.to_display_string (Engine.heap e) v

let check_num name expected src = Alcotest.(check (float 1e-9)) name expected (eval_num src)
let check_str name expected src = Alcotest.(check string) name expected (eval_str src)

(* --- Lexer --- *)

let test_lexer_tokens () =
  let e = fresh_engine () in
  let heap = Engine.heap e in
  let src =
    match Engine.Value.str_of_string heap "var x = 1.5e2; // comment\n x >= 'a\\n';" with
    | Engine.Value.Str s -> s
    | _ -> assert false
  in
  let toks = List.map (fun l -> l.Engine.Lexer.tok) (Engine.Lexer.tokenize heap src) in
  Alcotest.(check (list string)) "token stream"
    [ "keyword var"; "identifier x"; "\"=\""; "number 150"; "\";\""; "identifier x";
      "\">=\""; "string \"a\\n\""; "\";\""; "end of input" ]
    (List.map Engine.Lexer.token_to_string toks)

let test_lexer_line_numbers () =
  let e = fresh_engine () in
  let heap = Engine.heap e in
  let src =
    match Engine.Value.str_of_string heap "1;\n2;\n/* multi\nline */ 3;" with
    | Engine.Value.Str s -> s
    | _ -> assert false
  in
  let lines =
    Engine.Lexer.tokenize heap src
    |> List.filter_map (fun l ->
           match l.Engine.Lexer.tok with
           | Engine.Lexer.Num _ -> Some l.Engine.Lexer.line
           | _ -> None)
  in
  Alcotest.(check (list int)) "lines" [ 1; 2; 4 ] lines

let test_lexer_errors () =
  let e = fresh_engine () in
  List.iter
    (fun src ->
      Alcotest.(check bool) (Printf.sprintf "lex error: %s" src) true
        (match Engine.eval_string e src with
        | exception Engine.Lexer.Lex_error _ -> true
        | _ -> false))
    [ "\"unterminated"; "var x = @;"; "/* open" ]

(* --- Front-end pin ---

   Every character the lexer reads is a checked machine load, so its load
   sequence is simulated work: the cycles and TLB counts of tokenising a
   script, the token stream and the parser's output are pinned here over
   every registry bench, every browsing-session script and an edge-case
   script.  The pinned values were recorded with the original
   option-returning lexer; any host-side rewrite must reproduce them. *)

let edge_script =
  {|// line comment, then a block comment
/* block
   comment * / ** */
var $a_1 = 1.5e-3; var _b = 1.toString; var n = 12.25;
var s = 'it\'s' + "say \"hi\"\n\t\r\\ \q" + '"';
$a_1 /= 2; _b = $a_1 / 4; _b = 5/2;
x += 1; x -= 1; x *= 2; x %= 3;
var c = a == b && a != b || a <= b && a >= b;
var d = (1 << 2) >> 1;
var e = !a ? ~b : -c % 3 ^ 1 & 2 | 3;
var o = { k: [1, 2], 'q': null, new: new Array(2) };
if (o.k[0] < 2) { e = e > 1; } else if (e) { e = true; } else { e = false; }
function f(p, q) { return p; }
while (false) { break; }
for (var i = 0; i < 1; i += 1) { continue; }
if (x) { y = 2E+2; }|}

(* Scripts whose lexing fails, with the exact error text. *)
let lexer_error_scripts =
  [
    ("bad character", "var x = 1;\nvar y = @;");
    ("unterminated string", "var x = 1;\n\nvar s = 'abc");
    ("unterminated escape", "var s = \"abc\\");
    ("unterminated block comment", "1;\n/* open\n * still open *");
    ("bad number", "var x = 1e;");
  ]

(* Bench names repeat across suites (octane and jetstream2 both have a
   Box2D), so benches are keyed by suite; the four top-level suites
   together hold every registry bench. *)
let front_end_corpus () =
  List.concat_map
    (fun suite ->
      let s = Result.get_ok (Workloads.Registry.suite_of_name suite) in
      List.map
        (fun (b : Workloads.Bench_def.bench) -> (suite ^ "/" ^ b.Workloads.Bench_def.name, b.script))
        s.Workloads.Bench_def.benches)
    [ "dromaeo"; "kraken"; "octane"; "jetstream2" ]
  @ List.concat_map
      (fun (s : Workloads.Browsing.session) ->
        List.mapi
          (fun i src -> (Printf.sprintf "%s#%d" s.Workloads.Browsing.session_name i, src))
          s.Workloads.Browsing.scripts)
      Workloads.Browsing.sessions
  @ [ ("edge", edge_script) ]

let short_digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

(* (cycles, TLB hits, TLB misses) spent by [Lexer.tokenize] on a fresh
   engine, plus digests of the located token stream and of the parse. *)
let measure_front_end src =
  let e = fresh_engine () in
  let heap = Engine.heap e in
  let machine = Pkru_safe.Env.machine (Engine.env e) in
  let s =
    match Engine.Value.str_of_string heap src with
    | Engine.Value.Str s -> s
    | _ -> assert false
  in
  let cycles0 = Sim.Machine.cycles machine in
  let tlb0 = Sim.Machine.tlb_stats machine in
  let toks = Engine.Lexer.tokenize heap s in
  let tlb1 = Sim.Machine.tlb_stats machine in
  let counts =
    ( Sim.Machine.cycles machine - cycles0,
      tlb1.Sim.Tlb.hits - tlb0.Sim.Tlb.hits,
      tlb1.Sim.Tlb.misses - tlb0.Sim.Tlb.misses )
  in
  let stream =
    String.concat "\n"
      (List.map
         (fun (l : Engine.Lexer.located) ->
           Printf.sprintf "%s@%d" (Engine.Lexer.token_to_string l.Engine.Lexer.tok) l.Engine.Lexer.line)
         toks)
  in
  let ast =
    match Engine.Parser.parse toks with
    | program -> Marshal.to_string program [ Marshal.No_sharing ]
    | exception Engine.Parser.Parse_error msg -> "parse error: " ^ msg
  in
  (counts, short_digest stream, short_digest ast)

let lex_error src =
  let e = fresh_engine () in
  let heap = Engine.heap e in
  match Engine.Value.str_of_string heap src with
  | Engine.Value.Str s -> (
    match Engine.Lexer.tokenize heap s with
    | _ -> "no error"
    | exception Engine.Lexer.Lex_error msg -> msg)
  | _ -> assert false

let pinned_front_end =
  [
    ("dromaeo/dom-attr", (2236, 1118, 0, "924ed5cb41f405a2", "49158f3ec3cc6eb2"));
    ("dromaeo/dom-modify", (2660, 1330, 0, "fc8d729d561d954a", "9797c9bfd48fb7fa"));
    ("dromaeo/dom-query", (1260, 630, 0, "da98e80eb3cc9cf7", "fb188dc0601a67d7"));
    ("dromaeo/dom-html", (1326, 663, 0, "c42857c1168b1170", "a0ef013e8f82c7a3"));
    ("dromaeo/dom-traverse", (1858, 929, 0, "1dbd7ee322f31e85", "c55dd8c445ff06fe"));
    ("dromaeo/dom-style", (2058, 1029, 0, "4d583f4d8aa5fc1a", "e1ff8a4e7bc6c3bd"));
    ("dromaeo/dom-events", (2986, 1493, 0, "5cd94432ac4cd7fe", "c8a7ab9679748219"));
    ("dromaeo/v8-richards", (3876, 1938, 0, "57772e94ae3d5c77", "51cb3b3951881b7d"));
    ("dromaeo/v8-deltablue", (2452, 1226, 0, "48ffdc3d3b2ced9c", "86436016bdafdf3d"));
    ("dromaeo/v8-crypto", (4178, 2089, 0, "487276a95882a01b", "3e273eb8d1ca2849"));
    ("dromaeo/v8-raytrace", (6080, 3040, 0, "252571848b9da8b1", "53974884ccd33785"));
    ("dromaeo/v8-splay", (5702, 2851, 0, "cabbd7c54f7d032b", "fb1040688beaf495"));
    ("dromaeo/dromaeo-array", (2826, 1413, 0, "cb9d6472e5bbdf10", "b664317f5e693b5a"));
    ("dromaeo/dromaeo-string", (2434, 1217, 0, "23698fc3a198c210", "8919a3955b986428"));
    ("dromaeo/dromaeo-object", (2204, 1102, 0, "f8ba42421fd944ea", "40a38508057efb36"));
    ("dromaeo/dromaeo-regexp", (2380, 1190, 0, "32947bae55536a1d", "6376eeb3f84e9170"));
    ("dromaeo/sunspider-fft", (6870, 3435, 0, "458c5f56461cde7e", "85c8859b24009bbd"));
    ("dromaeo/sunspider-bitops", (3020, 1510, 0, "81e084cb7a82655d", "b227e5fce9c1d8bb"));
    ("dromaeo/sunspider-3d", (2770, 1385, 0, "8cbedb328b6a189c", "e0d6e3b7326013d7"));
    ("dromaeo/sunspider-controlflow", (5746, 2873, 0, "210301b0de824562", "1c49d30820bf6b0f"));
    ("dromaeo/sunspider-string", (5226, 2613, 0, "525407a83d158450", "035aa0c7d07a6a72"));
    ("dromaeo/jslib-toggle", (2480, 1240, 0, "997e1857d4ad7e32", "bd3efa5dda2b70f3"));
    ("dromaeo/jslib-build", (2202, 1101, 0, "fd59388199ce1572", "621f2a90a61ead37"));
    ("dromaeo/jslib-query", (1260, 630, 0, "3cbfe9ab7c142b76", "439ac839730a0ea4"));
    ("dromaeo/jslib-attr", (2236, 1118, 0, "f9e0a37b241dc910", "20ff144dc4b0989e"));
    ("dromaeo/jslib-select", (1362, 681, 0, "c7a438c1cae22fce", "19a7c5dee8832901"));
    ("kraken/audio-fft", (6870, 3435, 0, "7ccbfa6166d523fe", "24b96a5e2ae7151f"));
    ("kraken/audio-beat-detection", (2584, 1292, 0, "dedb0c31ce3e4092", "71dbc51b4f979b77"));
    ("kraken/audio-dft", (2550, 1275, 0, "f176ba230229e3c5", "98b9ed7a9ff15248"));
    ("kraken/audio-oscillator", (2788, 1394, 0, "3eed71af3e2902fd", "e6bc95cd5908ebf3"));
    ("kraken/imaging-gaussian-blur", (4898, 2449, 0, "ea560afab082cdb6", "95bfe2649b066883"));
    ("kraken/imaging-darkroom", (2536, 1268, 0, "2295a9ef99f5e393", "e273873d17fe01e5"));
    ("kraken/imaging-desaturate", (2394, 1197, 0, "f365cdf46e57641c", "53ae7ff6c6faaf35"));
    ("kraken/json-parse-financial", (2280, 1140, 0, "ab833f5dde032b13", "6cfa233e8e1f9e5f"));
    ("kraken/json-stringify-tinderbox", (2078, 1039, 0, "5ca4896421facd29", "d186e025506df9e8"));
    ("kraken/stanford-crypto-aes", (4182, 2091, 0, "fd11372f2ce2b2c9", "a7b2042fdab246c1"));
    ("kraken/stanford-crypto-ccm", (3010, 1505, 0, "b1c0c307e1dece31", "1c8de31a3ea09fc4"));
    ("kraken/stanford-crypto-pbkdf2", (3148, 1574, 0, "1e5973d68207a2b4", "2cbb089207d3bf5b"));
    ("kraken/stanford-crypto-sha256-iterative", (3020, 1510, 0, "4e7eecfc386e2a4f", "811f4e5e5a26f2f6"));
    ("kraken/ai-astar", (5746, 2873, 0, "f3391ce311758f10", "564aff9a672e8851"));
    ("octane/Richards", (3876, 1938, 0, "63c19b4e5b7a78a8", "18c17688b17941f9"));
    ("octane/DeltaBlue", (2452, 1226, 0, "ebda7b55a2e5edf9", "9c59257b87a81f8c"));
    ("octane/Crypto", (4178, 2089, 0, "310e6042e0ea1fad", "4a22122c56a81290"));
    ("octane/RayTrace", (6080, 3040, 0, "d0093a9e6114b652", "3d40930ab16386fd"));
    ("octane/EarleyBoyer", (2204, 1102, 0, "4efc70797771bfaa", "6fd098ad3f3f32fc"));
    ("octane/RegExp", (2380, 1190, 0, "598030cd7d54f2e3", "6187a2b769659de7"));
    ("octane/Splay", (5702, 2851, 0, "937f9cf09b8d9f4e", "66e196104a96c5cb"));
    ("octane/SplayLatency", (5702, 2851, 0, "97b327ca79710c69", "d8df025012633130"));
    ("octane/NavierStokes", (3514, 1757, 0, "7e77231858c50e43", "a00644e6c69e7d95"));
    ("octane/PdfJS", (2826, 1413, 0, "4d0717d7f91fed5e", "e8975075ee815998"));
    ("octane/Mandreel", (2770, 1385, 0, "37ada0fdcd87470d", "9772fd2e1378b580"));
    ("octane/MandreelLatency", (2770, 1385, 0, "dd00450657f36eab", "d1f47a53f7824a58"));
    ("octane/Gameboy", (2838, 1419, 0, "ff21b277f112206f", "8fa503b661920cf6"));
    ("octane/CodeLoad", (143202, 71601, 0, "2e8db854cf32639d", "354e4023dc38cb9f"));
    ("octane/Box2D", (2770, 1385, 0, "ea5f59428174f751", "dec89efdca0ed6bb"));
    ("octane/zlib", (2822, 1411, 0, "375d52fdf428c7a0", "c88e0a5d9a257c56"));
    ("octane/Typescript", (5226, 2613, 0, "817c467071143e51", "1a8687433b0c500a"));
    ("jetstream2/3d-cube-SP", (2770, 1385, 0, "0c940c47fe99ad24", "339d2bc50f76caaa"));
    ("jetstream2/3d-raytrace-SP", (6080, 3040, 0, "12b6582f101a328c", "058e6fdbf32a6aaa"));
    ("jetstream2/ai-astar", (5746, 2873, 0, "f3fcc6f176989634", "963b1b83dc9ed449"));
    ("jetstream2/Air", (2770, 1385, 0, "0f4bfb42b5251af7", "e2948c5f930363e8"));
    ("jetstream2/base64-SP", (2434, 1217, 0, "eac10ece8a8a6da8", "da11a74238773181"));
    ("jetstream2/Basic", (2822, 1411, 0, "24dcf8f04bbcf68b", "0a33b1a8fd252bd6"));
    ("jetstream2/Box2D", (2770, 1385, 0, "0393c86392b7a204", "822431e856685d64"));
    ("jetstream2/codeload-wtb", (118082, 59041, 0, "6d32d849ae6505ac", "b04c559eeaba69e7"));
    ("jetstream2/crypto", (4178, 2089, 0, "86caf2e8f9874e1a", "411e1c6d8c15ccb8"));
    ("jetstream2/crypto-aes-SP", (4182, 2091, 0, "abd6b23ebec0d115", "fccf24ed7f2c199c"));
    ("jetstream2/crypto-md5-SP", (3148, 1574, 0, "a71a4d0ad45e81d2", "d8511ad7dce10123"));
    ("jetstream2/crypto-sha1-SP", (3020, 1510, 0, "81e084cb7a82655d", "b227e5fce9c1d8bb"));
    ("jetstream2/delta-blue", (2452, 1226, 0, "9fad6a6f6b78664c", "8f6106f1847ec886"));
    ("jetstream2/earley-boyer", (2204, 1102, 0, "04901eb029957a5f", "49983680023de1d2"));
    ("jetstream2/float-mm.c", (2770, 1385, 0, "894d2685ef25d4e6", "fb7559e953958f04"));
    ("jetstream2/gaussian-blur", (4898, 2449, 0, "09c37ad8c813f777", "6db5797c488b7ff1"));
    ("jetstream2/gbemu", (2830, 1415, 0, "da37495f507cae9a", "23c33b143bd5dbfa"));
    ("jetstream2/hash-map", (5702, 2851, 0, "a58bc513fafb47ea", "eafa7a1df8f317e6"));
    ("jetstream2/json-parse-inspector", (2280, 1140, 0, "d4a378f03be4a891", "d295dbaaf212acfa"));
    ("jetstream2/json-stringify-inspector", (2078, 1039, 0, "0cf5449d8ef18919", "500028efb8c4a733"));
    ("jetstream2/mandreel", (2770, 1385, 0, "8d5bdb2a11025fc5", "5a13d29c4f7f76ca"));
    ("jetstream2/navier-stokes", (3514, 1757, 0, "b0a2056fa3d764f3", "8c460cdddca11699"));
    ("jetstream2/octane-code-load", (130642, 65321, 0, "70f357b3b2d66970", "a8b795d20261c691"));
    ("jetstream2/octane-zlib", (2822, 1411, 0, "8f3f0ab0bbd1059f", "ea41cbbbb47a52ac"));
    ("jetstream2/pdfjs", (2826, 1413, 0, "2b3a5167713fe35f", "ea4b36fbfa6939ff"));
    ("jetstream2/regexp", (2380, 1190, 0, "3d320f603abce365", "f370cdc7278268c4"));
    ("jetstream2/richards", (3876, 1938, 0, "9eb00b8bfedbf420", "4fcb09f5a462a663"));
    ("jetstream2/splay", (5702, 2851, 0, "025f78317b97dd36", "9ca2fae602726e23"));
    ("jetstream2/stanford-crypto-pbkdf2", (3148, 1574, 0, "a83c1de39185cf96", "cf25fdc1673270d6"));
    ("jetstream2/stanford-crypto-sha256", (3020, 1510, 0, "cf4f6febb74246fc", "19ec13f3cff52b90"));
    ("jetstream2/string-unpack-code-SP", (2434, 1217, 0, "c97531304ae1c2ca", "8c252488fa5ff21a"));
    ("jetstream2/tagcloud-SP", (2276, 1138, 0, "8b10a34b731b4265", "b447e806a1601d54"));
    ("jetstream2/typescript", (5226, 2613, 0, "f28e2f066c0ed094", "84d72dd5b3933a0d"));
    ("jetstream2/uglify-js-wtb", (5226, 2613, 0, "8d94c4d13d22f99b", "4af241ead92de6bf"));
    ("jetstream2/UniPoker", (1260, 630, 0, "9831a87278e2f197", "77fb474e97d84535"));
    ("jetstream2/WSL", (1858, 929, 0, "ecca8e0b4cb571e0", "2eb765ede84e19ee"));
    ("wpt#0", (1198, 599, 0, "a8e939e85f40c811", "02e390dc5a8f5221"));
    ("wpt#1", (1230, 615, 0, "43ad31c269345e54", "339a850244236e79"));
    ("jquery#0", (1228, 614, 0, "718738f61a7bebd0", "f4f8d92b77882c60"));
    ("jquery#1", (1002, 501, 0, "bb734ffcbe2e94b6", "09f18b4065efc804"));
    ("webidl#0", (1620, 810, 0, "79a96f7582010096", "e88c710847ddd5a9"));
    ("browse-search#0", (1332, 666, 0, "53f4940476849e5d", "b49fea9f94c23fa8"));
    ("browse-wiki#0", (1136, 568, 0, "5dd2c988c987c603", "e3dfe10cfaebc31b"));
    ("browse-video#0", (1414, 707, 0, "b4474a7696005fa4", "4f590f002b0bbf51"));
    ("browse-selectors#0", (1510, 755, 0, "11fd6a6bc09fc24d", "b99aed3836915fc7"));
    ("edge", (3666, 1833, 0, "28d96e684a68661f", "2860b669ed1cb8dd"));
  ]

let pinned_lexer_errors =
  [
    ("bad character", "line 2: unexpected character '@'");
    ("unterminated string", "line 3: unterminated string literal");
    ("unterminated escape", "line 1: unterminated escape");
    ("unterminated block comment", "line 3: unterminated block comment");
    ("bad number", "line 1: bad number literal 1e");
  ]

let test_front_end_pinned () =
  let corpus = front_end_corpus () in
  let sessions = Workloads.Browsing.sessions in
  Alcotest.(check int) "corpus covers every bench and session script"
    (List.length Workloads.Registry.benches
    + List.fold_left (fun n s -> n + List.length s.Workloads.Browsing.scripts) 0 sessions
    + 1)
    (List.length corpus);
  Alcotest.(check int) "pinned scripts" (List.length pinned_front_end) (List.length corpus);
  List.iter
    (fun (name, src) ->
      let (cycles, hits, misses), tokens, ast = measure_front_end src in
      match List.assoc_opt name pinned_front_end with
      | None -> Alcotest.failf "%s: no pinned values" name
      | Some (cycles', hits', misses', tokens', ast') ->
        let check what = Alcotest.(check int) (Printf.sprintf "%s: %s" name what) in
        check "lex cycles" cycles' cycles;
        check "lex TLB hits" hits' hits;
        check "lex TLB misses" misses' misses;
        Alcotest.(check string) (name ^ ": token stream") tokens' tokens;
        Alcotest.(check string) (name ^ ": parse") ast' ast)
    corpus;
  List.iter
    (fun (what, src) ->
      Alcotest.(check string) what (List.assoc what pinned_lexer_errors) (lex_error src))
    lexer_error_scripts

(* --- Parser --- *)

let test_parser_errors () =
  let e = fresh_engine () in
  List.iter
    (fun src ->
      Alcotest.(check bool) (Printf.sprintf "parse error: %s" src) true
        (match Engine.eval_string e src with
        | exception Engine.Parser.Parse_error _ -> true
        | _ -> false))
    [ "var;"; "if (1) return;"; "1 +;"; "function () {};"; "{ x: 1 };"; "f(1,;" ]

(* --- Arithmetic and operators --- *)

let test_arithmetic () =
  check_num "precedence" 14.0 "2 + 3 * 4;";
  check_num "parens" 20.0 "(2 + 3) * 4;";
  check_num "division" 2.5 "5 / 2;";
  check_num "modulo" 1.0 "7 % 3;";
  check_num "unary minus" (-6.0) "-2 * 3;";
  check_num "ternary" 10.0 "1 < 2 ? 10 : 20;";
  check_num "logical and" 0.0 "0 && 5;";
  check_num "logical or" 7.0 "0 || 7;";
  check_num "comparisons" 2.0 "(1 < 2) + (2 <= 2) + (3 > 4) + (1 == 1) + (1 != 1) - 1;"

let test_string_ops () =
  check_str "concat" "ab3" "'a' + 'b' + 3;";
  check_num "length" 5.0 "'hello'.length;";
  check_num "charCodeAt" 104.0 "'hi'.charCodeAt(0);";
  check_str "substring" "ell" "'hello'.substring(1, 4);";
  check_num "indexOf hit" 2.0 "'hello'.indexOf('ll');";
  check_num "indexOf miss" (-1.0) "'hello'.indexOf('z');";
  check_str "fromCharCode" "AB" "String.fromCharCode(65, 66);";
  check_str "upper" "HI" "'hi'.toUpperCase();";
  check_str "split+join" "a-b-c" "'a,b,c'.split(',').join('-');"

let test_arrays () =
  check_num "literal + index" 30.0 "var a = [10, 20, 30]; a[2];";
  check_num "push returns length" 4.0 "var a = [1,2,3]; a.push(9);";
  check_num "pop" 3.0 "var a = [1,2,3]; a.pop();";
  check_num "length grows" 11.0 "var a = new Array(10); a[10] = 5; a.length;";
  check_num "store + load" 42.0 "var a = new Array(3); a[1] = 42; a[1];";
  check_str "join" "1,2,3" "[1,2,3].join(',');";
  check_num "indexOf" 1.0 "[5,6,7].indexOf(6);";
  check_num "out of range read is null" 1.0 "var a = [1]; a[5] == null ? 1 : 0;"

let test_objects () =
  check_num "literal + member" 7.0 "var o = {a: 7, b: 2}; o.a;";
  check_num "assign member" 9.0 "var o = {}; o.x = 9; o.x;";
  check_num "index by string" 3.0 "var o = {k: 3}; o['k'];";
  check_num "missing is null" 1.0 "var o = {}; o.nope == null ? 1 : 0;";
  check_num "nested" 5.0 "var o = {inner: {v: 5}}; o.inner.v;"

let test_functions_and_closures () =
  check_num "function decl" 120.0
    "function fact(n) { if (n < 2) { return 1; } return n * fact(n - 1); } fact(5);";
  check_num "closure captures" 15.0
    "function adder(n) { return function(x) { return x + n; }; } var add5 = adder(5); add5(10);";
  check_num "function literal" 9.0 "var sq = function(x) { return x * x; }; sq(3);";
  check_num "missing args are null" 1.0 "function f(a, b) { return b == null ? 1 : 0; } f(1);";
  check_num "object method" 8.0 "var o = {f: function(x) { return x * 2; }}; o.f(4);"

let test_control_flow () =
  check_num "while" 45.0 "var s = 0; var i = 0; while (i < 10) { s = s + i; i = i + 1; } s;";
  check_num "for" 45.0 "var s = 0; for (var i = 0; i < 10; i = i + 1) { s += i; } s;";
  check_num "break" 5.0 "var i = 0; while (true) { if (i == 5) { break; } i = i + 1; } i;";
  check_num "continue" 25.0
    "var s = 0; for (var i = 0; i < 10; i = i + 1) { if (i % 2 == 0) { continue; } s += i; } s;";
  check_num "else if" 2.0 "var x = 5; var r = 0; if (x < 3) { r = 1; } else if (x < 7) { r = 2; } else { r = 3; } r;";
  check_num "compound assign" 14.0 "var x = 2; x += 3; x *= 4; x -= 6; x;"

let test_bitwise_ops () =
  check_num "and" 8.0 "12 & 10;";
  check_num "or" 14.0 "12 | 10;";
  check_num "xor" 6.0 "12 ^ 10;";
  check_num "shl" 48.0 "12 << 2;";
  check_num "shr" 3.0 "12 >> 2;";
  check_num "shr negative" (-2.0) "-8 >> 2;";
  check_num "not" (-13.0) "~12;";
  check_num "wrap32" 0.0 "(4294967296 | 0);";
  check_num "wrap32 high bit" (-2147483648.0) "(2147483648 | 0);";
  check_num "precedence vs cmp" 1.0 "(1 & 3) == 1 ? 1 : 0;";
  check_num "shift binds tighter than and" 4.0 "1 << 2 & 12;"

let test_extended_builtins () =
  check_num "parseInt" 42.0 "parseInt('42.9');";
  check_num "parseFloat" 2.5 "parseFloat('2.5');";
  check_num "isNaN" 1.0 "isNaN('zzz') ? 1 : 0;";
  check_str "typeof" "string" "typeof('x');";
  check_num "Math.trunc" (-3.0) "Math.trunc(-3.7);";
  check_num "Math.sign" (-1.0) "Math.sign(-9);";
  check_num "Math.hypot" 5.0 "Math.hypot(3, 4);";
  check_str "slice" "ell" "'hello'.slice(1, 4);";
  check_str "slice negative" "lo" "'hello'.slice(-2, 99);";
  check_str "trim" "hi" "'  hi  '.trim();";
  check_num "startsWith" 1.0 "'hello'.startsWith('he') ? 1 : 0;";
  check_str "replace" "hxllo" "'hello'.replace('e', 'x');";
  check_str "replace miss" "hello" "'hello'.replace('z', 'x');"

let test_higher_order_arrays () =
  check_str "map" "[2,4,6]" "[1,2,3].map(function(x) { return x * 2; });";
  check_str "filter" "[2,4]" "[1,2,3,4].filter(function(x) { return x % 2 == 0; });";
  check_num "reduce" 10.0 "[1,2,3,4].reduce(function(a, b) { return a + b; }, 0);";
  check_str "sort" "[1,2,5,9]" "var a = [5,1,9,2]; a.sort(); a;";
  check_str "reverse" "[3,2,1]" "[1,2,3].reverse();";
  check_str "slice array" "[20,30]" "[10,20,30,40].slice(1, 3);";
  check_str "concat" "[1,2,3,4]" "[1,2].concat([3,4]);";
  check_str "fill" "[7,7,7]" "new Array(3).fill(7);";
  (* map over a closure capturing its environment *)
  check_num "map with capture" 60.0
    "function scale(k) { return function(x) { return x * k; }; } [1,2,3].map(scale(10)).reduce(function(a,b) { return a + b; }, 0);"

let test_math_and_random () =
  check_num "floor" 3.0 "Math.floor(3.7);";
  check_num "sqrt" 5.0 "Math.sqrt(25);";
  check_num "pow" 8.0 "Math.pow(2, 3);";
  check_num "min/max" 7.0 "Math.min(9, 7) + Math.max(-1, 0);";
  (* Math.random is deterministic per seed. *)
  let run seed =
    let e = fresh_engine ~seed () in
    Engine.eval_string e "Math.random();"
  in
  Alcotest.(check bool) "seeded random deterministic" true (run 7 = run 7);
  Alcotest.(check bool) "different seeds differ" true (run 7 <> run 8)

let test_json_roundtrip () =
  check_str "stringify" {|{"a":[1,2,"x"]}|} "JSON.stringify({a: [1, 2, 'x']});";
  check_num "parse" 42.0 "var v = JSON.parse('{\"k\": [41, 42]}'); v.k[1];";
  check_num "roundtrip" 3.0
    "var v = JSON.parse(JSON.stringify({list: [1,2,3]})); v.list.length;"

let test_print_output () =
  let e = fresh_engine () in
  ignore (Engine.eval_string e "print('hello', 42); print([1,2]);");
  Alcotest.(check (list string)) "output" [ "hello 42"; "[1,2]" ] (Engine.take_output e)

let test_runtime_errors () =
  let e = fresh_engine () in
  List.iter
    (fun (src, what) ->
      Alcotest.(check bool) what true
        (match Engine.eval_string e src with
        | exception Engine.Eval.Script_error _ -> true
        | _ -> false))
    [
      ("nope;", "undefined variable");
      ("var a = [1]; a[7] = 0;", "sparse store rejected");
      ("var x = 4; x(1);", "not callable");
      ("null.f();", "method on null");
      ("Math.frobnicate(1);", "unknown Math fn");
    ]

let test_fuel_exhaustion () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  let e = Engine.create ~fuel:10_000 env in
  Alcotest.(check bool) "infinite loop stopped" true
    (match Engine.eval_string e "while (true) { }" with
    | exception Engine.Eval.Script_error _ -> true
    | _ -> false)

let test_engine_data_lives_in_mu () =
  let e = fresh_engine () in
  (match Engine.eval_string e "[1,2,3];" with
  | Engine.Value.Arr a ->
    Alcotest.(check bool) "array buffer in MU" true (Vmm.Layout.in_untrusted a.Engine.Value.a_buf)
  | _ -> Alcotest.fail "expected array");
  match Engine.eval_string e "'some string';" with
  | Engine.Value.Str s ->
    Alcotest.(check bool) "string bytes in MU" true (Vmm.Layout.in_untrusted s.Engine.Value.s_addr)
  | _ -> Alcotest.fail "expected string"

let test_host_functions () =
  let e = fresh_engine () in
  let heap = Engine.heap e in
  Engine.register_host e "hostDouble" (fun args ->
      match args with
      | [ Engine.Value.Num f ] -> Engine.Value.Num (2.0 *. f)
      | _ -> Alcotest.fail "bad args");
  Engine.register_host e "hostGreet" (fun _ -> Engine.Value.str_of_string heap "hi");
  Alcotest.(check (float 0.0)) "host call" 42.0
    (match Engine.eval_string e "hostDouble(21);" with
    | Engine.Value.Num f -> f
    | _ -> Alcotest.fail "num");
  Alcotest.(check string) "host string" "hi!"
    (Engine.Value.to_display_string heap (Engine.eval_string e "hostGreet() + '!';"))

let test_host_function_as_value () =
  let e = fresh_engine () in
  Engine.register_host e "hostInc" (fun args ->
      match args with
      | [ Engine.Value.Num f ] -> Engine.Value.Num (f +. 1.0)
      | _ -> Alcotest.fail "bad args");
  check_num "host passed around" 0.0 "0;";
  Alcotest.(check (float 0.0)) "indirect host call" 6.0
    (match
       Engine.eval_string e
         "function apply(f, x) { return f(x); } apply(hostInc, 5);"
     with
    | Engine.Value.Num f -> f
    | _ -> Alcotest.fail "num")

let test_nan_boxing_roundtrip () =
  let e = fresh_engine () in
  let heap = Engine.heap e in
  let values =
    [
      Engine.Value.Null;
      Engine.Value.Bool true;
      Engine.Value.Bool false;
      Engine.Value.Num 0.0;
      Engine.Value.Num (-1.5);
      Engine.Value.Num Float.nan;
      Engine.Value.Num Float.infinity;
      Engine.Value.str_of_string heap "xyz";
      Engine.Value.arr_make heap 2;
      Engine.Value.obj_make heap;
      Engine.Value.Handle 99;
    ]
  in
  List.iter
    (fun v ->
      let v' = Engine.Value.unbox heap (Engine.Value.box heap v) in
      match (v, v') with
      | Engine.Value.Num f, Engine.Value.Num f' ->
        Alcotest.(check bool) "num round-trip" true
          (Float.is_nan f && Float.is_nan f' || f = f')
      | a, b -> Alcotest.(check bool) "identity round-trip" true (a == b || a = b))
    values

let test_values_survive_array_storage () =
  (* Mixed-type array contents survive the NaN-boxed machine slots. *)
  check_str "mixed array" "[1.5,x,true,null,[2]]"
    "var a = [1.5, 'x', true, null, [2]]; a;"

let test_gc_reclaims_garbage () =
  let e = fresh_engine () in
  let heap = Engine.heap e in
  ignore
    (Engine.eval_string e
       {|
var keep = [1, "kept string", {k: [2, 3]}];
for (var i = 0; i < 50; i = i + 1) {
  var junk = "temporary " + i;
  var arr = [i, i + 1, junk];
}
var keeper = function(x) { return keep[0] + x; };
|});
  let before = Engine.Value.owned_count heap in
  let freed = Engine.collect e in
  let after = Engine.Value.owned_count heap in
  Alcotest.(check bool) (Printf.sprintf "garbage freed (%d)" freed) true (freed > 40);
  Alcotest.(check int) "registry shrank accordingly" (before - freed) after;
  (* Everything reachable still works after collection. *)
  Alcotest.(check string) "kept data intact" "kept string"
    (Engine.Value.to_display_string heap (Engine.eval_string e "keep[1];"));
  Alcotest.(check (float 0.0)) "closure + captured array intact" 8.0
    (match Engine.eval_string e "keeper(7);" with
    | Engine.Value.Num f -> f
    | _ -> Alcotest.fail "num");
  Alcotest.(check (float 0.0)) "nested object intact" 3.0
    (match Engine.eval_string e "keep[2].k[1];" with
    | Engine.Value.Num f -> f
    | _ -> Alcotest.fail "num")

let test_gc_handles_cycles () =
  let e = fresh_engine () in
  ignore
    (Engine.eval_string e
       {|
var a = {};
var b = {back: a};
a.fwd = b;
var cyclic_array = [];
cyclic_array.push(cyclic_array);
|});
  (* Reachable cycles survive (the only garbage so far is the script
     source buffer itself). *)
  let freed_live = Engine.collect e in
  Alcotest.(check bool) (Printf.sprintf "only scratch freed (%d)" freed_live) true
    (freed_live <= 2);
  Alcotest.(check (float 0.0)) "cycle still intact" 1.0
    (match Engine.eval_string e "a.fwd.back == a ? 1 : 0;" with
    | Engine.Value.Num f -> f
    | _ -> Alcotest.fail "num");
  (* ...unreachable cycles are collected. *)
  ignore (Engine.eval_string e "a = null; b = null; cyclic_array = null;");
  let freed = Engine.collect e in
  Alcotest.(check bool) (Printf.sprintf "cycle reclaimed (%d)" freed) true (freed >= 3)

(* Marking reads array slots through the machine, so the order [gc] visits
   bindings in is part of the simulated access stream.  The 80 global
   arrays span more pages than the direct-mapped TLB has entries, so a
   different visiting order changes the TLB's miss count (though not the
   cycles): the collection's cycles and TLB hits and misses are pinned. *)
let test_gc_access_order_pinned () =
  let e = fresh_engine () in
  let buf = Buffer.create 4096 in
  for i = 0 to 79 do
    Buffer.add_string buf
      (Printf.sprintf "var g%d = __new_array(%d);\n" i (1536 + (i * 97 mod 1024)))
  done;
  Buffer.add_string buf
    {|
var mk = function (n) {
  var a = [n]; var b = [n, n]; var c = {p: [1, 2, 3]};
  return function () { return a[0] + b[1] + c.p[2]; };
};
var f1 = mk(1); var f2 = mk(2); f1 = null;
|};
  ignore (Engine.eval_string e (Buffer.contents buf));
  let m = Pkru_safe.Env.machine (Engine.env e) in
  let c0 = Sim.Machine.cycles m and tlb0 = Sim.Machine.tlb_stats m in
  let freed = Engine.collect e in
  let tlb1 = Sim.Machine.tlb_stats m in
  Alcotest.(check (list int)) "freed, cycles, TLB hits, TLB misses" [ 5; 648762; 162189; 139 ]
    [
      freed;
      Sim.Machine.cycles m - c0;
      tlb1.Sim.Tlb.hits - tlb0.Sim.Tlb.hits;
      tlb1.Sim.Tlb.misses - tlb0.Sim.Tlb.misses;
    ]

let test_gc_never_frees_foreign_buffers () =
  (* Strings handed to the engine by the browser are not engine-owned:
     collection must leave them alone even when unreachable. *)
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  let b = Browser.create env in
  Browser.load_page b {|<div data="browser-owned">x</div>|};
  ignore
    (Browser.exec_script b
       {|var v = domGetAttribute(domQueryTag("div")[0], "data"); v = null;|});
  let engine = Browser.engine b in
  ignore (Engine.collect engine);
  (* The browser can still read its buffer through a fresh getter. *)
  ignore (Browser.exec_script b {|print(domGetAttribute(domQueryTag("div")[0], "data"));|});
  Alcotest.(check (list string)) "attribute intact" [ "browser-owned" ] (Browser.console b)

(* Host allocation per loop iteration, from the difference between two
   loop lengths (the fixed cost of engine creation, parsing and scope set-up
   cancels).  Minor-heap words are deterministic for a given compiler, so
   these are hard ceilings, not timings. *)
let words_per_iteration tier =
  let run n =
    let e = fresh_engine () in
    let src =
      Printf.sprintf "var s = 0; for (var i = 0; i < %d; i = i + 1) { s = s + i * 2; }" n
    in
    let w0 = Gc.minor_words () in
    ignore (Engine.eval_string ~tier e src);
    Gc.minor_words () -. w0
  in
  let small = run 1_000 and large = run 2_000 in
  (large -. small) /. 1_000.

let test_loop_allocation () =
  (* AST: three [Num] results (4 words each) and the three numeric
     literals' [Num] blocks (2 words each, sharing the AST's float). *)
  let ast = words_per_iteration Engine.Ast_tier in
  Alcotest.(check bool) (Printf.sprintf "ast words/iteration %.1f <= 18" ast) true (ast <= 18.);
  let threaded = words_per_iteration Engine.Threaded_tier in
  Alcotest.(check bool)
    (Printf.sprintf "threaded words/iteration %.1f <= 60" threaded)
    true (threaded <= 60.)

let suite =
  [
    Alcotest.test_case "loop allocation ceiling" `Quick test_loop_allocation;
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer line numbers" `Quick test_lexer_line_numbers;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "front end pinned" `Quick test_front_end_pinned;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "string ops" `Quick test_string_ops;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "objects" `Quick test_objects;
    Alcotest.test_case "functions + closures" `Quick test_functions_and_closures;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "bitwise ops" `Quick test_bitwise_ops;
    Alcotest.test_case "extended builtins" `Quick test_extended_builtins;
    Alcotest.test_case "higher-order arrays" `Quick test_higher_order_arrays;
    Alcotest.test_case "math + seeded random" `Quick test_math_and_random;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "print output" `Quick test_print_output;
    Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "engine data in MU" `Quick test_engine_data_lives_in_mu;
    Alcotest.test_case "host functions" `Quick test_host_functions;
    Alcotest.test_case "host function as value" `Quick test_host_function_as_value;
    Alcotest.test_case "nan-boxing round-trip" `Quick test_nan_boxing_roundtrip;
    Alcotest.test_case "mixed arrays survive slots" `Quick test_values_survive_array_storage;
    Alcotest.test_case "gc reclaims garbage" `Quick test_gc_reclaims_garbage;
    Alcotest.test_case "gc handles cycles" `Quick test_gc_handles_cycles;
    Alcotest.test_case "gc spares foreign buffers" `Quick test_gc_never_frees_foreign_buffers;
    Alcotest.test_case "gc access order pinned" `Quick test_gc_access_order_pinned;
  ]
