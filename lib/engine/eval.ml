exception Script_error of string

let () =
  Printexc.register_printer (function
    | Script_error msg -> Some ("Eval.Script_error: " ^ msg)
    | _ -> None)

type host = Value.t list -> Value.t

(* A scope's bindings live in a small open-addressed string table.  [names]
   and [cells] hold the bindings densely, in declaration order; [index] (a
   power of two, at most half full) maps a name's [Hashtbl.hash] to 1 + its
   dense position, 0 marking an empty slot.  A probe returns the position,
   or -1 on a miss, so walking a scope chain allocates nothing and raises
   nothing: a miss at every level below the holder is the common case. *)
type scope = {
  mutable index : int array;
  mutable names : string array; (* empty until the first declaration *)
  mutable cells : Value.t ref array; (* likewise; cell [i] is the i-th declared name's *)
  mutable decls : int;
      (* the number of bindings: bumped only when a NEW name is declared in
         this scope; re-declaring an existing name updates its cell in
         place.  Variable inline caches validate against this epoch: an
         unchanged [decls] on every scope a cached walk skipped proves no
         new shadowing binding appeared. *)
  parent : scope option;
  origin : int;
      (* shared by every scope minted at one closure-call site (0 = not
         tracked).  Declarations at such a site form a fixed sequence —
         params first, then the body's own-scope [var]s in body order —
         so (origin, decls) determines the name of every cell below
         [decls], which is what the slot-resolved variable IC validates
         against. *)
}

(* [size] is the initial [index] length (a power of two): 64 for the
   globals, 8 for a call's scope, 4 for a loop's or block's.  [names] and
   [cells] are allocated at the first declaration, so a scope that never
   declares costs its record and index only. *)
let make_scope ~size ?(origin = 0) parent =
  { index = Array.make size 0; names = [||]; cells = [||]; decls = 0; parent; origin }

let rec probe index names mask name i =
  let j = index.(i) in
  if j = 0 then -1
  else if String.equal names.(j - 1) name then j - 1
  else probe index names mask name ((i + 1) land mask)

(* The dense position of [name] (whose hash is [h]) in [scope], or -1. *)
let find scope name h =
  let index = scope.index in
  let mask = Array.length index - 1 in
  probe index scope.names mask name (h land mask)

let rec free_slot index mask i =
  if index.(i) = 0 then i else free_slot index mask ((i + 1) land mask)

(* Doubles the dense arrays (or allocates them, at half the index length)
   and rebuilds the index at twice their capacity when they outgrow it. *)
let grow scope r =
  let n = scope.decls in
  let cap = if n = 0 then Array.length scope.index / 2 else 2 * n in
  let names = Array.make cap "" and cells = Array.make cap r in
  Array.blit scope.names 0 names 0 n;
  Array.blit scope.cells 0 cells 0 n;
  scope.names <- names;
  scope.cells <- cells;
  if 2 * cap > Array.length scope.index then begin
    let index = Array.make (2 * cap) 0 in
    let mask = (2 * cap) - 1 in
    for j = 0 to n - 1 do
      index.(free_slot index mask (Hashtbl.hash names.(j) land mask)) <- j + 1
    done;
    scope.index <- index
  end

type closure = {
  c_params : string list;
  c_body : Ast.stmt list;
  c_scope : scope;
}

type ic_stats = {
  mutable var_hits : int;
  mutable var_misses : int;
}

type t = {
  heap : Value.heap;
  machine : Sim.Machine.t;
  globals : scope;
  hosts : (string, host) Hashtbl.t;
  mutable closures : closure array;
  mutable nclosures : int;
  rng : Util.Rng.t;
  mutable output : string list; (* reversed *)
  mutable fuel : int;
  mutable steps : int;
  mutable gc_roots : (unit -> Value.t list) list;
  mutable origin_counter : int;
      (* per-evaluator, so scope-origin ids don't depend on how many other
         sessions ran first in the process (fleet order-independence) *)
  ic : ic_stats;
  mutable yield_hook : (unit -> unit) option;
      (* fleet scheduling only: called once per tick, after the charge.
         Charges nothing and emits nothing itself, so installing a hook
         cannot perturb simulated cycles/transitions/traces; [None] costs
         one load + one branch (sink discipline). *)
}

(* Non-local control flow inside function bodies. *)
exception Return_exc of Value.t
exception Break_exc
exception Continue_exc

let create ?(seed = 1) ?(fuel = 200_000_000) heap =
  let globals = make_scope ~size:64 None in
  {
    heap;
    machine = Pkru_safe.Env.machine (Value.env heap);
    globals;
    hosts = Hashtbl.create 32;
    closures = Array.make 16 { c_params = []; c_body = []; c_scope = globals };
    nclosures = 0;
    rng = Util.Rng.create seed;
    output = [];
    fuel;
    steps = 0;
    gc_roots = [];
    origin_counter = 0;
    ic = { var_hits = 0; var_misses = 0 };
    yield_hook = None;
  }

let heap t = t.heap

let register_host t name fn = Hashtbl.replace t.hosts name fn

(* Origins for call-site-minted scopes (see [scope]); 0 means untracked.
   Counted per evaluator: two sessions produce the same ids whether they
   run sequentially or interleaved. *)
let fresh_origin t =
  t.origin_counter <- t.origin_counter + 1;
  t.origin_counter

let declare scope name v =
  let h = Hashtbl.hash name in
  let i = find scope name h in
  if i >= 0 then scope.cells.(i) := v
  else begin
    let n = scope.decls in
    let r = ref v in
    if n = Array.length scope.names then grow scope r;
    scope.names.(n) <- name;
    scope.cells.(n) <- r;
    let index = scope.index in
    let mask = Array.length index - 1 in
    index.(free_slot index mask (h land mask)) <- n + 1;
    scope.decls <- n + 1
  end

let set_global t name v = declare t.globals name v

let get_global t name =
  let i = find t.globals name (Hashtbl.hash name) in
  if i < 0 then None else Some !(t.globals.cells.(i))

let take_output t =
  let lines = List.rev t.output in
  t.output <- [];
  lines

let steps t = t.steps

let fail fmt = Format.kasprintf (fun msg -> raise (Script_error msg)) fmt

let charge t n = Sim.Machine.charge t.machine n

let tick t n =
  t.steps <- t.steps + 1;
  t.fuel <- t.fuel - 1;
  if t.fuel <= 0 then fail "script ran out of fuel";
  charge t n;
  match t.yield_hook with None -> () | Some hook -> hook ()

let set_yield_hook t hook = t.yield_hook <- hook

let add_closure t c =
  if t.nclosures >= Array.length t.closures then begin
    let bigger = Array.make (2 * Array.length t.closures) c in
    Array.blit t.closures 0 bigger 0 t.nclosures;
    t.closures <- bigger
  end;
  t.closures.(t.nclosures) <- c;
  t.nclosures <- t.nclosures + 1;
  t.nclosures - 1

let unresolved t name =
  if Hashtbl.mem t.hosts name then Value.Host name else fail "undefined variable %s" name

(* The uncached walk: charges 2 per level probed, down to the holder, and
   resolves a name bound nowhere to its host function. *)
let rec walk_lookup t scope name h =
  charge t 2;
  let i = find scope name h in
  if i >= 0 then !(scope.cells.(i))
  else
    match scope.parent with
    | Some p -> walk_lookup t p name h
    | None -> unresolved t name

let lookup t scope name = walk_lookup t scope name (Hashtbl.hash name)

let rec walk_assign scope name h v =
  let i = find scope name h in
  if i >= 0 then begin
    scope.cells.(i) := v;
    true
  end
  else
    match scope.parent with
    | Some p -> walk_assign p name h v
    | None -> false

let assign_existing scope name v = walk_assign scope name (Hashtbl.hash name) v

(* --- Variable inline caches ---

   A call site that resolves the same name repeatedly can skip the
   host-side hash lookups of the scope walk while charging exactly the
   cycles the walk would have charged.  Two cache levels:

   - The {e full-walk} cache is anchored on the innermost scope itself.
     While [cur] is physically the same scope (loop bodies, block and
     global scopes survive across iterations) and no scope the walk
     probed has declared a new name since ([decls] epoch — nothing can
     shadow the cached binding), a hit needs zero hash probes.  It
     charges 2 cycles per level the uncached walk would have probed
     (misses below the holder plus the holder itself), so cycle counts
     are bit-identical.

   - Per-call scopes are fresh hash tables, so the full-walk anchor
     never validates inside function bodies.  The fallback performs (and
     charges) the real level-0 probe, then consults the {e walk-above}
     cache anchored on [cur.parent] — the captured scope chain, which IS
     stable across calls to the same closure.

   Sites whose anchors never stabilise (every access lands in a freshly
   minted scope, e.g. locals of a block re-entered each iteration) stop
   paying the cache-refill overhead: after [streak_limit] consecutive
   misses without a hit the site disables itself and reverts to the
   plain charged walk. *)

(* [ic_stats] is declared above [t] (the evaluator owns its counters, so
   concurrent sessions don't cross-pollute each other's hit rates). *)
let ic_stats t = t.ic

let reset_ic_stats t =
  t.ic.var_hits <- 0;
  t.ic.var_misses <- 0

type var_site = {
  vsite_name : string;
  vsite_hash : int; (* [Hashtbl.hash vsite_name], the scope-table probe key *)
  (* slot cache, keyed on the scope's call-site origin: valid for every
     scope minted at that site while its declaration epoch matches *)
  mutable vslot_origin : int; (* 0 = empty *)
  mutable vslot_decls : int;
  mutable vslot_idx : int;
  (* full-walk cache, anchored on [cur] at fill time *)
  mutable vfull_anchor : scope option;
  mutable vfull_ref : Value.t ref;
  mutable vfull_path : (scope * int) array; (* probed-and-missed scopes + decls snapshots *)
  (* walk-above-cur cache, anchored on [cur.parent] at fill time *)
  mutable vsite_anchor : scope option;
  mutable vsite_ref : Value.t ref;
  mutable vsite_levels : int; (* scopes the walk probed below [cur], holder included *)
  mutable vsite_path : (scope * int) array; (* skipped scopes + decls snapshots *)
  mutable vsite_streak : int; (* consecutive misses; negative = site disabled *)
}

let streak_limit = 32

let var_site name =
  { vsite_name = name; vsite_hash = Hashtbl.hash name;
    vslot_origin = 0; vslot_decls = 0; vslot_idx = 0;
    vfull_anchor = None; vfull_ref = ref Value.Null; vfull_path = [||];
    vsite_anchor = None; vsite_ref = ref Value.Null;
    vsite_levels = 0; vsite_path = [||]; vsite_streak = 0 }

(* A level-0 find at position [i] of an origin-tracked scope can be
   slot-cached: the cell sits at that position for every scope of this
   origin at this declaration epoch. *)
let vslot_learn site cur i =
  if cur.origin > 0 then begin
    site.vslot_origin <- cur.origin;
    site.vslot_decls <- cur.decls;
    site.vslot_idx <- i
  end

let vfull_valid site cur =
  (match site.vfull_anchor with Some a -> a == cur | None -> false)
  && Array.for_all (fun (s, d) -> s.decls = d) site.vfull_path

let vsite_valid site parent =
  match site.vsite_anchor with
  | Some a when a == parent ->
    Array.for_all (fun (s, d) -> s.decls = d) site.vsite_path
  | _ -> false

(* Walk from [start] (= cur.parent) resolving [site.vsite_name], charging 2
   per level when [charged] (lookup semantics; assignment charges nothing),
   and refill both cache levels on success. *)
let vsite_fill t ~charged site cur start =
  let missed = ref [] in
  let rec go depth s =
    if charged then charge t 2;
    let i = find s site.vsite_name site.vsite_hash in
    if i >= 0 then begin
      let r = s.cells.(i) in
      let path = Array.of_list (List.rev_map (fun sc -> (sc, sc.decls)) !missed) in
      site.vsite_anchor <- Some start;
      site.vsite_ref <- r;
      site.vsite_levels <- depth + 1;
      site.vsite_path <- path;
      site.vfull_anchor <- Some cur;
      site.vfull_ref <- r;
      site.vfull_path <- Array.append [| (cur, cur.decls) |] path;
      Some r
    end
    else begin
      missed := s :: !missed;
      match s.parent with
      | Some p -> go (depth + 1) p
      | None -> None
    end
  in
  go 0 start

let vsite_miss t site =
  t.ic.var_misses <- t.ic.var_misses + 1;
  if site.vsite_streak >= 0 then begin
    site.vsite_streak <- site.vsite_streak + 1;
    if site.vsite_streak > streak_limit then site.vsite_streak <- -1
  end

(* A level-0 hit: re-anchor the full-walk cache on [cur]. *)
let anchor_full site cur i =
  site.vsite_streak <- 0;
  site.vfull_anchor <- Some cur;
  site.vfull_ref <- cur.cells.(i);
  site.vfull_path <- [||];
  vslot_learn site cur i

let cached_lookup t cur site =
  if site.vsite_streak < 0 then begin
    t.ic.var_misses <- t.ic.var_misses + 1;
    walk_lookup t cur site.vsite_name site.vsite_hash
  end
  else if
    cur.origin > 0 && cur.origin = site.vslot_origin && cur.decls = site.vslot_decls
  then begin
    t.ic.var_hits <- t.ic.var_hits + 1;
    site.vsite_streak <- 0;
    charge t 2;
    !(cur.cells.(site.vslot_idx))
  end
  else if vfull_valid site cur then begin
    t.ic.var_hits <- t.ic.var_hits + 1;
    site.vsite_streak <- 0;
    charge t (2 * (Array.length site.vfull_path + 1));
    !(site.vfull_ref)
  end
  else begin
    charge t 2;
    let i = find cur site.vsite_name site.vsite_hash in
    if i >= 0 then begin
      anchor_full site cur i;
      !(cur.cells.(i))
    end
    else
      match cur.parent with
      | None -> unresolved t site.vsite_name
      | Some p ->
        if vsite_valid site p then begin
          t.ic.var_hits <- t.ic.var_hits + 1;
          site.vsite_streak <- 0;
          charge t (2 * site.vsite_levels);
          !(site.vsite_ref)
        end
        else begin
          vsite_miss t site;
          match vsite_fill t ~charged:true site cur p with
          | Some r -> !r
          | None -> unresolved t site.vsite_name
        end
  end

let cached_assign t cur site v =
  if site.vsite_streak < 0 then begin
    t.ic.var_misses <- t.ic.var_misses + 1;
    walk_assign cur site.vsite_name site.vsite_hash v
  end
  else if
    cur.origin > 0 && cur.origin = site.vslot_origin && cur.decls = site.vslot_decls
  then begin
    t.ic.var_hits <- t.ic.var_hits + 1;
    site.vsite_streak <- 0;
    cur.cells.(site.vslot_idx) := v;
    true
  end
  else if vfull_valid site cur then begin
    t.ic.var_hits <- t.ic.var_hits + 1;
    site.vsite_streak <- 0;
    site.vfull_ref := v;
    true
  end
  else begin
    let i = find cur site.vsite_name site.vsite_hash in
    if i >= 0 then begin
      anchor_full site cur i;
      cur.cells.(i) := v;
      true
    end
    else
      match cur.parent with
      | None -> false
      | Some p ->
        if vsite_valid site p then begin
          t.ic.var_hits <- t.ic.var_hits + 1;
          site.vsite_streak <- 0;
          site.vsite_ref := v;
          true
        end
        else begin
          vsite_miss t site;
          match vsite_fill t ~charged:false site cur p with
          | Some r ->
            r := v;
            true
          | None -> false
        end
  end

let to_num t v =
  match v with
  | Value.Num f -> f
  | Value.Bool true -> 1.0
  | Value.Bool false -> 0.0
  | Value.Null -> 0.0
  | Value.Str s ->
    (match float_of_string_opt (String.trim (Value.string_of_str t.heap s)) with
    | Some f -> f
    | None -> Float.nan)
  | v -> fail "cannot convert %s to a number" (Value.type_name v)

let to_int t v = int_of_float (to_num t v)

(* JS ToInt32: wrap the integral part into signed 32-bit range. *)
let wrap32 x =
  let m = x land 0xFFFFFFFF in
  if m >= 0x80000000 then m - 0x100000000 else m

let to_i32 t v =
  let f = to_num t v in
  if Float.is_nan f || Float.is_integer f = false then wrap32 (int_of_float f)
  else wrap32 (int_of_float (Float.rem f 4294967296.0))

let of_i32 x = float_of_int (wrap32 x)

let to_str t v =
  match v with
  | Value.Str _ -> v
  | v -> Value.str_of_string t.heap (Value.to_display_string t.heap v)

let as_str = function
  | Value.Str s -> s
  | v -> fail "expected a string, got %s" (Value.type_name v)

let as_arr = function
  | Value.Arr a -> a
  | v -> fail "expected an array, got %s" (Value.type_name v)

(* --- JSON builtins (kraken-style json-parse / json-stringify) --- *)

let rec json_stringify t buf v =
  match v with
  | Value.Null -> Buffer.add_string buf "null"
  | Value.Bool b -> Buffer.add_string buf (string_of_bool b)
  | Value.Num f ->
    Buffer.add_string buf
      (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
       else Printf.sprintf "%.12g" f)
  | Value.Str s ->
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      (Value.string_of_str t.heap s);
    Buffer.add_char buf '"'
  | Value.Arr a ->
    Buffer.add_char buf '[';
    for i = 0 to a.Value.a_len - 1 do
      if i > 0 then Buffer.add_char buf ',';
      json_stringify t buf (Value.arr_get t.heap a i)
    done;
    Buffer.add_char buf ']'
  | Value.Obj o ->
    Buffer.add_char buf '{';
    let first = ref true in
    Value.obj_iter
      (fun k v ->
        if not !first then Buffer.add_char buf ',';
        first := false;
        Buffer.add_string buf (Printf.sprintf "%S" k);
        Buffer.add_char buf ':';
        json_stringify t buf v)
      o;
    Buffer.add_char buf '}'
  | Value.Fun _ | Value.Host _ | Value.Handle _ -> Buffer.add_string buf "null"

let json_parse t (s : Value.str) =
  (* Reuse the util JSON parser on a copy of the bytes (the copy itself is
     a charged machine read), then rebuild engine values. *)
  let text = Value.string_of_str t.heap s in
  let rec convert = function
    | Util.Json.Null -> Value.Null
    | Util.Json.Bool b -> Value.Bool b
    | Util.Json.Int i -> Value.Num (float_of_int i)
    | Util.Json.Float f -> Value.Num f
    | Util.Json.String s -> Value.str_of_string t.heap s
    | Util.Json.List items ->
      let arr = Value.arr_make t.heap 0 in
      let a = as_arr arr in
      List.iter (fun item -> Value.arr_push t.heap a (convert item)) items;
      arr
    | Util.Json.Obj fields ->
      let obj = Value.obj_make t.heap in
      (match obj with
      | Value.Obj o -> List.iter (fun (k, v) -> Value.obj_set t.heap o k (convert v)) fields
      | _ -> assert false);
      obj
  in
  match Util.Json.of_string text with
  | v -> convert v
  | exception Util.Json.Parse_error msg -> fail "JSON.parse: %s" msg

(* --- Static namespaces --- *)

let math_call t name args =
  let num i = to_num t (List.nth args i) in
  let unary f = Value.Num (f (num 0)) in
  charge t 4;
  match (name, List.length args) with
  | "floor", 1 -> unary Float.floor
  | "ceil", 1 -> unary Float.ceil
  | "round", 1 -> unary Float.round
  | "abs", 1 -> unary Float.abs
  | "sqrt", 1 -> unary sqrt
  | "sin", 1 -> unary sin
  | "cos", 1 -> unary cos
  | "tan", 1 -> unary tan
  | "atan", 1 -> unary atan
  | "log", 1 -> unary log
  | "exp", 1 -> unary exp
  | "atan2", 2 -> Value.Num (atan2 (num 0) (num 1))
  | "pow", 2 -> Value.Num (Float.pow (num 0) (num 1))
  | "min", 2 -> Value.Num (Float.min (num 0) (num 1))
  | "max", 2 -> Value.Num (Float.max (num 0) (num 1))
  | "random", 0 -> Value.Num (Util.Rng.float t.rng 1.0)
  | "trunc", 1 -> unary Float.trunc
  | "sign", 1 -> unary (fun f -> if f > 0.0 then 1.0 else if f < 0.0 then -1.0 else 0.0)
  | "hypot", 2 -> Value.Num (Float.hypot (num 0) (num 1))
  | "log2", 1 -> unary (fun f -> log f /. log 2.0)
  | _ -> fail "Math.%s: unknown function or bad arity" name

let string_ns_call t name args =
  match (name, args) with
  | "fromCharCode", codes ->
    let bytes = Bytes.create (List.length codes) in
    List.iteri (fun i c -> Bytes.set bytes i (Char.chr (to_int t c land 0xFF))) codes;
    Value.str_of_string t.heap (Bytes.to_string bytes)
  | _ -> fail "String.%s: unknown function" name

let json_ns_call t name args =
  match (name, args) with
  | "stringify", [ v ] ->
    let buf = Buffer.create 64 in
    json_stringify t buf v;
    (* Building the text costs proportional machine writes. *)
    Value.str_of_string t.heap (Buffer.contents buf)
  | "parse", [ v ] -> json_parse t (as_str v)
  | _ -> fail "JSON.%s: unknown function or bad arity" name

(* The operator a compound assignment applies: ["+="] -> ["+"]. *)
let compound_op = function
  | "+=" -> "+"
  | "-=" -> "-"
  | "*=" -> "*"
  | "/=" -> "/"
  | "%=" -> "%"
  | op -> String.sub op 0 1

(* --- Value methods --- *)

let rec method_call t recv name args =
  match recv with
  | Value.Arr a ->
    (match (name, args) with
    | "push", [ v ] ->
      Value.arr_push t.heap a v;
      Value.Num (float_of_int a.Value.a_len)
    | "pop", [] -> Value.arr_pop t.heap a
    | "join", [ sep ] ->
      let sep = Value.string_of_str t.heap (as_str (to_str t sep)) in
      let parts =
        List.init a.Value.a_len (fun i ->
            Value.to_display_string t.heap (Value.arr_get t.heap a i))
      in
      Value.str_of_string t.heap (String.concat sep parts)
    | "indexOf", [ v ] ->
      let rec find i =
        if i >= a.Value.a_len then -1
        else if Value.equals t.heap (Value.arr_get t.heap a i) v then i
        else find (i + 1)
      in
      Value.Num (float_of_int (find 0))
    | "slice", [ lo; hi ] ->
      let len = a.Value.a_len in
      let norm i = if i < 0 then max 0 (len + i) else min i len in
      let lo = norm (to_int t lo) and hi = norm (to_int t hi) in
      let out = Value.arr_make t.heap 0 in
      let o = as_arr out in
      for i = lo to hi - 1 do
        Value.arr_push t.heap o (Value.arr_get t.heap a i)
      done;
      out
    | "concat", [ other ] ->
      let other = as_arr other in
      let out = Value.arr_make t.heap 0 in
      let o = as_arr out in
      for i = 0 to a.Value.a_len - 1 do
        Value.arr_push t.heap o (Value.arr_get t.heap a i)
      done;
      for i = 0 to other.Value.a_len - 1 do
        Value.arr_push t.heap o (Value.arr_get t.heap other i)
      done;
      out
    | "reverse", [] ->
      let n = a.Value.a_len in
      for i = 0 to (n / 2) - 1 do
        let x = Value.arr_get t.heap a i in
        let y = Value.arr_get t.heap a (n - 1 - i) in
        Value.arr_set t.heap a i y;
        Value.arr_set t.heap a (n - 1 - i) x
      done;
      recv
    | "fill", [ v ] ->
      for i = 0 to a.Value.a_len - 1 do
        Value.arr_set t.heap a i v
      done;
      recv
    | "map", [ f ] ->
      let out = Value.arr_make t.heap 0 in
      let o = as_arr out in
      for i = 0 to a.Value.a_len - 1 do
        Value.arr_push t.heap o (call_value t f [ Value.arr_get t.heap a i ])
      done;
      out
    | "filter", [ f ] ->
      let out = Value.arr_make t.heap 0 in
      let o = as_arr out in
      for i = 0 to a.Value.a_len - 1 do
        let v = Value.arr_get t.heap a i in
        if Value.truthy (call_value t f [ v ]) then Value.arr_push t.heap o v
      done;
      out
    | "reduce", [ f; init ] ->
      let acc = ref init in
      for i = 0 to a.Value.a_len - 1 do
        acc := call_value t f [ !acc; Value.arr_get t.heap a i ]
      done;
      !acc
    | "sort", [] ->
      (* Numeric ascending (insertion sort through machine slots). *)
      for i = 1 to a.Value.a_len - 1 do
        let v = Value.arr_get t.heap a i in
        let key = to_num t v in
        let j = ref (i - 1) in
        while !j >= 0 && to_num t (Value.arr_get t.heap a !j) > key do
          Value.arr_set t.heap a (!j + 1) (Value.arr_get t.heap a !j);
          decr j
        done;
        Value.arr_set t.heap a (!j + 1) v
      done;
      recv
    | _ -> fail "array has no method %s/%d" name (List.length args))
  | Value.Str s ->
    (match (name, args) with
    | "charCodeAt", [ i ] -> Value.Num (float_of_int (Value.str_get t.heap s (to_int t i)))
    | "charAt", [ i ] ->
      let i = to_int t i in
      if i < 0 || i >= s.Value.s_len then Value.str_of_string t.heap ""
      else Value.str_sub t.heap s i 1
    | "substring", [ a; b ] ->
      let a = to_int t a and b = to_int t b in
      let lo = min a b and hi = max a b in
      Value.str_sub t.heap s lo (hi - lo)
    | "indexOf", [ needle ] ->
      Value.Num (float_of_int (Value.str_index_of t.heap s (as_str needle)))
    | "split", [ sep ] ->
      let text = Value.string_of_str t.heap s in
      let sep = Value.string_of_str t.heap (as_str sep) in
      let parts =
        if String.length sep = 1 then String.split_on_char sep.[0] text
        else fail "split: only single-character separators are supported"
      in
      let arr = Value.arr_make t.heap 0 in
      let a = as_arr arr in
      List.iter (fun p -> Value.arr_push t.heap a (Value.str_of_string t.heap p)) parts;
      arr
    | "slice", [ a; b ] ->
      let len = s.Value.s_len in
      let norm i = if i < 0 then max 0 (len + i) else min i len in
      let a = norm (to_int t a) and b = norm (to_int t b) in
      Value.str_sub t.heap s a (max 0 (b - a))
    | "trim", [] ->
      Value.str_of_string t.heap (String.trim (Value.string_of_str t.heap s))
    | "startsWith", [ p ] ->
      Value.of_bool (Value.str_index_of t.heap s (as_str p) = 0)
    | "replace", [ find; repl ] ->
      (* First occurrence only, like the JS string (not regex) form. *)
      let find = as_str find in
      let idx = Value.str_index_of t.heap s find in
      if idx < 0 then Value.Str s
      else begin
        let text = Value.string_of_str t.heap s in
        let repl = Value.string_of_str t.heap (as_str repl) in
        Value.str_of_string t.heap
          (String.sub text 0 idx ^ repl
          ^ String.sub text (idx + find.Value.s_len) (String.length text - idx - find.Value.s_len))
      end
    | "toUpperCase", [] ->
      Value.str_of_string t.heap (String.uppercase_ascii (Value.string_of_str t.heap s))
    | "toLowerCase", [] ->
      Value.str_of_string t.heap (String.lowercase_ascii (Value.string_of_str t.heap s))
    | _ -> fail "string has no method %s/%d" name (List.length args))
  | Value.Obj o ->
    (* Calling a function-valued property. *)
    (match Value.obj_get t.heap o name with
    | Value.Null -> fail "object has no method %s" name
    | f -> call_value t f args)
  | v -> fail "%s has no methods" (Value.type_name v)

and member t recv name =
  match (recv, name) with
  | Value.Arr a, "length" -> Value.Num (float_of_int a.Value.a_len)
  | Value.Str s, "length" -> Value.Num (float_of_int s.Value.s_len)
  | Value.Obj o, _ -> Value.obj_get t.heap o name
  | v, _ -> fail "cannot read property %s of %s" name (Value.type_name v)

and call_value t callee args =
  charge t t.machine.Sim.Machine.cpu.Sim.Cpu.cost.Sim.Cost.call;
  match callee with
  | Value.Fun id ->
    let c = t.closures.(id) in
    let scope = make_scope ~size:8 (Some c.c_scope) in
    bind_params scope c.c_params args;
    (try
       exec_stmts t scope c.c_body;
       Value.Null
     with Return_exc v -> v)
  | Value.Host name ->
    (match Hashtbl.find_opt t.hosts name with
    | Some fn -> fn args
    | None -> fail "unknown host function %s" name)
  | v -> fail "%s is not callable" (Value.type_name v)

(* Parameter [i] is bound to argument [i], or to [Null] past the last. *)
and bind_params scope params args =
  match (params, args) with
  | [], _ -> ()
  | p :: ps, v :: vs ->
    declare scope p v;
    bind_params scope ps vs
  | p :: ps, [] ->
    declare scope p Value.Null;
    bind_params scope ps []

and eval t scope (e : Ast.expr) : Value.t =
  tick t 1;
  match e with
  | Ast.Num f -> Value.Num f
  | Ast.Str s -> Value.str_of_string t.heap s
  | Ast.Bool b -> Value.of_bool b
  | Ast.Null -> Value.Null
  | Ast.Ident "Math" | Ast.Ident "JSON" | Ast.Ident "String" ->
    fail "namespace %s cannot be used as a value"
      (match e with
      | Ast.Ident n -> n
      | _ -> assert false)
  | Ast.Ident name -> lookup t scope name
  | Ast.Array_lit items ->
    let arr = Value.arr_make t.heap 0 in
    let a = as_arr arr in
    List.iter (fun item -> Value.arr_push t.heap a (eval t scope item)) items;
    arr
  | Ast.Object_lit fields ->
    let obj = Value.obj_make t.heap in
    (match obj with
    | Value.Obj o -> List.iter (fun (k, v) -> Value.obj_set t.heap o k (eval t scope v)) fields
    | _ -> assert false);
    obj
  | Ast.Func_lit (params, body) ->
    Value.Fun (add_closure t { c_params = params; c_body = body; c_scope = scope })
  | Ast.Unary ("!", e) -> Value.of_bool (not (Value.truthy (eval t scope e)))
  | Ast.Unary ("-", e) -> Value.Num (-.to_num t (eval t scope e))
  | Ast.Unary ("~", e) -> Value.Num (of_i32 (lnot (to_i32 t (eval t scope e))))
  | Ast.Unary (op, _) -> fail "unknown unary operator %s" op
  | Ast.Binary ("&&", a, b) ->
    let va = eval t scope a in
    if Value.truthy va then eval t scope b else va
  | Ast.Binary ("||", a, b) ->
    let va = eval t scope a in
    if Value.truthy va then va else eval t scope b
  | Ast.Binary (op, a, b) -> binary t op (eval t scope a) (eval t scope b)
  | Ast.Ternary (c, a, b) -> if Value.truthy (eval t scope c) then eval t scope a else eval t scope b
  | Ast.Assign (op, lhs, rhs) ->
    let v = eval t scope rhs in
    let v =
      if op = "=" then v
      else
        let old = eval t scope lhs in
        binary t (compound_op op) old v
    in
    store t scope lhs v;
    v
  | Ast.Index (a, i) ->
    (match eval t scope a with
    | Value.Arr arr ->
      let i = to_int t (eval t scope i) in
      if i < 0 || i >= arr.Value.a_len then Value.Null else Value.arr_get t.heap arr i
    | Value.Str s ->
      let i = to_int t (eval t scope i) in
      if i < 0 || i >= s.Value.s_len then Value.Null else Value.str_sub t.heap s i 1
    | Value.Obj o -> Value.obj_get t.heap o (Value.string_of_str t.heap (as_str (to_str t (eval t scope i))))
    | v -> fail "cannot index %s" (Value.type_name v))
  | Ast.Member (e, name) -> member t (eval t scope e) name
  | Ast.Method_call (Ast.Ident "Math", name, args) ->
    math_call t name (eval_args t scope args)
  | Ast.Method_call (Ast.Ident "JSON", name, args) ->
    json_ns_call t name (eval_args t scope args)
  | Ast.Method_call (Ast.Ident "String", name, args) ->
    string_ns_call t name (eval_args t scope args)
  | Ast.Method_call (recv, name, args) ->
    let recv = eval t scope recv in
    let args = eval_args t scope args in
    charge t 3;
    method_call t recv name args
  | Ast.Call (Ast.Ident "parseInt", [ arg ]) ->
    let f = to_num t (eval t scope arg) in
    Value.Num (Float.trunc f)
  | Ast.Call (Ast.Ident "parseFloat", [ arg ]) -> Value.Num (to_num t (eval t scope arg))
  | Ast.Call (Ast.Ident "isNaN", [ arg ]) ->
    Value.of_bool (Float.is_nan (to_num t (eval t scope arg)))
  | Ast.Call (Ast.Ident "Number", [ arg ]) -> Value.Num (to_num t (eval t scope arg))
  | Ast.Call (Ast.Ident "typeof", [ arg ]) ->
    Value.str_of_string t.heap (Value.type_name (eval t scope arg))
  | Ast.Call (Ast.Ident "print", args) ->
    let parts = List.map (fun a -> Value.to_display_string t.heap (eval t scope a)) args in
    t.output <- String.concat " " parts :: t.output;
    Value.Null
  | Ast.Call (Ast.Ident "__new_array", [ n ]) ->
    Value.arr_make t.heap (to_int t (eval t scope n))
  | Ast.Call (callee, args) ->
    let callee = eval t scope callee in
    let args = eval_args t scope args in
    call_value t callee args

(* Left to right, as [List.map] would, without its per-call closure. *)
and eval_args t scope = function
  | [] -> []
  | a :: rest ->
    let v = eval t scope a in
    v :: eval_args t scope rest

and binary t op a b =
  charge t 1;
  match op with
  | "+" ->
    (match (a, b) with
    | Value.Str _, _ | _, Value.Str _ ->
      Value.str_concat t.heap (as_str (to_str t a)) (as_str (to_str t b))
    | _ -> Value.Num (to_num t a +. to_num t b))
  | "-" -> Value.Num (to_num t a -. to_num t b)
  | "*" -> Value.Num (to_num t a *. to_num t b)
  | "/" -> Value.Num (to_num t a /. to_num t b)
  | "%" -> Value.Num (Float.rem (to_num t a) (to_num t b))
  | "&" -> Value.Num (of_i32 (to_i32 t a land to_i32 t b))
  | "|" -> Value.Num (of_i32 (to_i32 t a lor to_i32 t b))
  | "^" -> Value.Num (of_i32 (to_i32 t a lxor to_i32 t b))
  | "<<" -> Value.Num (of_i32 (to_i32 t a lsl (to_i32 t b land 31)))
  | ">>" -> Value.Num (of_i32 (to_i32 t a asr (to_i32 t b land 31)))
  | "==" -> Value.of_bool (Value.equals t.heap a b)
  | "!=" -> Value.of_bool (not (Value.equals t.heap a b))
  | "<" -> Value.of_bool (to_num t a < to_num t b)
  | "<=" -> Value.of_bool (to_num t a <= to_num t b)
  | ">" -> Value.of_bool (to_num t a > to_num t b)
  | ">=" -> Value.of_bool (to_num t a >= to_num t b)
  | op -> fail "unknown operator %s" op

and store t scope lhs v =
  match lhs with
  | Ast.Ident name ->
    if not (assign_existing scope name v) then declare t.globals name v
  | Ast.Index (a, i) ->
    (match eval t scope a with
    | Value.Arr arr ->
      let i = to_int t (eval t scope i) in
      if i = arr.Value.a_len then Value.arr_push t.heap arr v
      else if i >= 0 && i < arr.Value.a_len then Value.arr_set t.heap arr i v
      else fail "array store out of range: %d (len %d)" i arr.Value.a_len
    | Value.Obj o ->
      Value.obj_set t.heap o (Value.string_of_str t.heap (as_str (to_str t (eval t scope i)))) v
    | v -> fail "cannot index-assign %s" (Value.type_name v))
  | Ast.Member (e, name) ->
    (match eval t scope e with
    | Value.Obj o -> Value.obj_set t.heap o name v
    | v -> fail "cannot set property %s on %s" name (Value.type_name v))
  | _ -> fail "invalid assignment target"

and exec_stmt t scope (s : Ast.stmt) =
  tick t 1;
  match s with
  | Ast.Expr e -> ignore (eval t scope e)
  | Ast.Var (name, init) ->
    let v = eval t scope init in
    declare scope name v
  | Ast.Func_decl (name, params, body) ->
    let id = add_closure t { c_params = params; c_body = body; c_scope = scope } in
    declare scope name (Value.Fun id)
  | Ast.If (cond, then_, else_) ->
    if Value.truthy (eval t scope cond) then exec_stmts t scope then_
    else exec_stmts t scope else_
  | Ast.While (cond, body) ->
    (try
       while Value.truthy (eval t scope cond) do
         try exec_stmts t scope body with Continue_exc -> ()
       done
     with Break_exc -> ())
  | Ast.For (init, cond, step, body) ->
    let loop_scope = make_scope ~size:4 (Some scope) in
    (match init with
    | Some s -> exec_stmt t loop_scope s
    | None -> ());
    let check () =
      match cond with
      | Some c -> Value.truthy (eval t loop_scope c)
      | None -> true
    in
    (try
       while check () do
         (try exec_stmts t loop_scope body with Continue_exc -> ());
         match step with
         | Some s -> exec_stmt t loop_scope s
         | None -> ()
       done
     with Break_exc -> ())
  | Ast.Return v ->
    raise
      (Return_exc
         (match v with
         | Some e -> eval t scope e
         | None -> Value.Null))
  | Ast.Break -> raise Break_exc
  | Ast.Continue -> raise Continue_exc
  | Ast.Block body ->
    exec_stmts t (make_scope ~size:4 (Some scope)) body

and exec_stmts t scope = function
  | [] -> ()
  | s :: rest ->
    exec_stmt t scope s;
    exec_stmts t scope rest

(* --- Garbage collection (see the interface for the safety contract) --- *)

(* The positions of [scope]'s bindings in the order [gc] marks them: by
   bucket [Hashtbl.hash name land (b - 1)], newest first within a bucket,
   where [b] starts at [buckets] and doubles while there are more than two
   bindings per bucket.  This is the iteration order of an OCaml [Hashtbl]
   of that initial size filled in declaration order; marking reads array
   slots through the machine, so the order is part of the simulated
   access stream and stays fixed. *)
let mark_order scope ~buckets =
  let b = ref buckets in
  while scope.decls > 2 * !b do
    b := 2 * !b
  done;
  let bucket i = Hashtbl.hash scope.names.(i) land (!b - 1) in
  List.sort
    (fun i j -> if bucket i <> bucket j then compare (bucket i) (bucket j) else compare j i)
    (List.init scope.decls Fun.id)

let gc t =
  let live = Hashtbl.create 256 in
  let seen_closures = Hashtbl.create 64 in
  let seen_scopes : scope list ref = ref [] in
  let rec mark_value v =
    match v with
    | Value.Null | Value.Bool _ | Value.Num _ | Value.Host _ | Value.Handle _ -> ()
    | Value.Str s -> if s.Value.s_owned then Hashtbl.replace live s.Value.s_addr ()
    | Value.Arr a ->
      if not (Hashtbl.mem live a.Value.a_buf) then begin
        Hashtbl.replace live a.Value.a_buf ();
        for i = 0 to a.Value.a_len - 1 do
          mark_value (Value.arr_get t.heap a i)
        done
      end
    | Value.Obj o ->
      if not (Hashtbl.mem live o.Value.o_addr) then begin
        Hashtbl.replace live o.Value.o_addr ();
        Value.obj_iter (fun _ v -> mark_value v) o
      end
    | Value.Fun id ->
      if not (Hashtbl.mem seen_closures id) then begin
        Hashtbl.add seen_closures id ();
        mark_scope t.closures.(id).c_scope
      end
  and mark_scope scope =
    if not (List.memq scope !seen_scopes) then begin
      seen_scopes := scope :: !seen_scopes;
      List.iter
        (fun i -> mark_value !(scope.cells.(i)))
        (mark_order scope ~buckets:(if scope == t.globals then 64 else 16));
      match scope.parent with
      | Some parent -> mark_scope parent
      | None -> ()
    end
  in
  mark_scope t.globals;
  List.iter (fun provider -> List.iter mark_value (provider ())) t.gc_roots;
  Value.sweep t.heap ~live:(Hashtbl.mem live)

let run_program t (prog : Ast.program) =
  let result = ref Value.Null in
  List.iter
    (fun s ->
      match s with
      | Ast.Expr e -> result := eval t t.globals e
      | s -> exec_stmt t t.globals s)
    prog;
  !result

let call_function t f args = call_value t f args


(* --- The tier-shared semantic core (see the interface) --- *)

let globals_scope t = t.globals

let new_scope ?origin ~parent () = make_scope ~size:8 ?origin (Some parent)

let scope_declare scope name v = declare scope name v

let scope_lookup t scope name = lookup t scope name

let scope_assign t scope name v =
  if not (assign_existing scope name v) then declare t.globals name v

let binary_op t op a b = binary t op a b

(* Compile-time specialisation of {!binary_op}: the operator string is
   matched once, when the site is compiled, not on every execution.  Each
   returned closure performs exactly the reference sequence — charge 1,
   then the operation — and an unknown operator yields a closure that
   still charges 1 before failing, preserving the reference's
   charge-before-fail order. *)
let binary_fn op : t -> Value.t -> Value.t -> Value.t =
  match op with
  | "+" ->
    fun t a b ->
      charge t 1;
      (match (a, b) with
      | Value.Str _, _ | _, Value.Str _ ->
        Value.str_concat t.heap (as_str (to_str t a)) (as_str (to_str t b))
      | _ -> Value.Num (to_num t a +. to_num t b))
  | "-" ->
    fun t a b ->
      charge t 1;
      Value.Num (to_num t a -. to_num t b)
  | "*" ->
    fun t a b ->
      charge t 1;
      Value.Num (to_num t a *. to_num t b)
  | "/" ->
    fun t a b ->
      charge t 1;
      Value.Num (to_num t a /. to_num t b)
  | "%" ->
    fun t a b ->
      charge t 1;
      Value.Num (Float.rem (to_num t a) (to_num t b))
  | "&" ->
    fun t a b ->
      charge t 1;
      Value.Num (of_i32 (to_i32 t a land to_i32 t b))
  | "|" ->
    fun t a b ->
      charge t 1;
      Value.Num (of_i32 (to_i32 t a lor to_i32 t b))
  | "^" ->
    fun t a b ->
      charge t 1;
      Value.Num (of_i32 (to_i32 t a lxor to_i32 t b))
  | "<<" ->
    fun t a b ->
      charge t 1;
      Value.Num (of_i32 (to_i32 t a lsl (to_i32 t b land 31)))
  | ">>" ->
    fun t a b ->
      charge t 1;
      Value.Num (of_i32 (to_i32 t a asr (to_i32 t b land 31)))
  | "==" ->
    fun t a b ->
      charge t 1;
      Value.of_bool (Value.equals t.heap a b)
  | "!=" ->
    fun t a b ->
      charge t 1;
      Value.of_bool (not (Value.equals t.heap a b))
  | "<" ->
    fun t a b ->
      charge t 1;
      Value.of_bool (to_num t a < to_num t b)
  | "<=" ->
    fun t a b ->
      charge t 1;
      Value.of_bool (to_num t a <= to_num t b)
  | ">" ->
    fun t a b ->
      charge t 1;
      Value.of_bool (to_num t a > to_num t b)
  | ">=" ->
    fun t a b ->
      charge t 1;
      Value.of_bool (to_num t a >= to_num t b)
  | op ->
    fun t _ _ ->
      charge t 1;
      fail "unknown operator %s" op

let truthy_value = Value.truthy

let unary_op t op v =
  match op with
  | "!" -> Value.of_bool (not (Value.truthy v))
  | "-" -> Value.Num (-.to_num t v)
  | "~" -> Value.Num (of_i32 (lnot (to_i32 t v)))
  | op -> fail "unknown unary operator %s" op

let member_get t recv name = member t recv name

let member_set t recv name v =
  match recv with
  | Value.Obj o -> Value.obj_set t.heap o name v
  | v -> fail "cannot set property %s on %s" name (Value.type_name v)

let index_get t recv idx =
  match recv with
  | Value.Arr arr ->
    let i = to_int t idx in
    if i < 0 || i >= arr.Value.a_len then Value.Null else Value.arr_get t.heap arr i
  | Value.Str s ->
    let i = to_int t idx in
    if i < 0 || i >= s.Value.s_len then Value.Null else Value.str_sub t.heap s i 1
  | Value.Obj o -> Value.obj_get t.heap o (Value.string_of_str t.heap (as_str (to_str t idx)))
  | v -> fail "cannot index %s" (Value.type_name v)

let index_set t recv idx v =
  match recv with
  | Value.Arr arr ->
    let i = to_int t idx in
    if i = arr.Value.a_len then Value.arr_push t.heap arr v
    else if i >= 0 && i < arr.Value.a_len then Value.arr_set t.heap arr i v
    else fail "array store out of range: %d (len %d)" i arr.Value.a_len
  | Value.Obj o -> Value.obj_set t.heap o (Value.string_of_str t.heap (as_str (to_str t idx))) v
  | v -> fail "cannot index-assign %s" (Value.type_name v)

let ns_call t ns name args =
  match ns with
  | "Math" -> math_call t name args
  | "JSON" -> json_ns_call t name args
  | "String" -> string_ns_call t name args
  | ns -> fail "unknown namespace %s" ns

let print_values t args =
  let parts = List.map (Value.to_display_string t.heap) args in
  t.output <- String.concat " " parts :: t.output

let array_of_size t n = Value.arr_make t.heap (to_int t n)

let make_closure t ~params ~body scope =
  Value.Fun (add_closure t { c_params = params; c_body = body; c_scope = scope })

let closure_parts t id =
  let c = t.closures.(id) in
  (c.c_params, c.c_body, c.c_scope)

let tick = tick

let add_gc_root t provider = t.gc_roots <- provider :: t.gc_roots
