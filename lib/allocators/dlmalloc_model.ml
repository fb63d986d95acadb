(* Boundary-tag allocator with metadata in simulated memory.

   Chunk layout (sizes are multiples of 16 and include both tags):

     c+0      header  u64 = size | in_use
     c+8      payload (fwd pointer when free)
     c+16     ...     (bck pointer when free)
     c+size-8 footer  u64 = size | in_use

   Segments are page spans bracketed by 8-byte in_use sentinels of size 0,
   so coalescing walks can never leave the segment. *)

type segment = {
  seg_base : int;
  seg_len : int;
}

type t = {
  machine : Sim.Machine.t;
  pool : Pool.t;
  bins : int array; (* head chunk address per bin; 0 = empty *)
  binmap : int array; (* bit per bin, set iff the bin is non-empty *)
  live : (int, unit) Hashtbl.t; (* payload address -> () *)
  mutable segments : segment list;
  stats : Alloc_stats.t;
}

let bin_count = 96
let min_chunk = 32
let default_segment_pages = 16
let cost_op_overhead = 20

(* The binmap is a host-side index over [bins]: it lets [find_fit] skip
   empty bins without touching simulated memory, exactly as a bin whose
   head is 0 costs no simulated read.  48 bins per OCaml int word. *)
let bins_per_word = 48
let binmap_words = (bin_count + bins_per_word - 1) / bins_per_word

let create machine pool =
  {
    machine;
    pool;
    bins = Array.make bin_count 0;
    binmap = Array.make binmap_words 0;
    live = Hashtbl.create 256;
    segments = [];
    stats = Alloc_stats.create ();
  }

let page_size = Vmm.Layout.page_size

let in_use v = v land 1 = 1
let chunk_size v = v land lnot 15
let tag ~size ~used = size lor (if used then 1 else 0)

let read t addr = Sim.Machine.read_u64 t.machine addr
let write t addr v = Sim.Machine.write_u64 t.machine addr v

let set_tags t c size used =
  write t c (tag ~size ~used);
  write t (c + size - 8) (tag ~size ~used)

let round16 n = (n + 15) land lnot 15

let rec log2 v = if v <= 1 then 0 else 1 + log2 (v / 2)

let bin_index size =
  let size16 = size lsr 4 in
  if size16 < 64 then size16 else 64 + min 31 (log2 (size / 1024))

let bin_bit b = 1 lsl (b mod bins_per_word)

let mark_bin t b =
  let w = b / bins_per_word in
  t.binmap.(w) <- t.binmap.(w) lor bin_bit b

let clear_bin t b =
  let w = b / bins_per_word in
  t.binmap.(w) <- t.binmap.(w) land lnot (bin_bit b)

let bin_marked t b = t.binmap.(b / bins_per_word) land bin_bit b <> 0

(* Index of the lowest set bit of a non-zero word. *)
let lowest_bit m =
  let rec go m n width =
    if width = 0 then n
    else if m land ((1 lsl width) - 1) = 0 then go (m lsr width) (n + width) (width / 2)
    else go m n (width / 2)
  in
  go m 0 32

(* The first non-empty bin at or above [b]; [bin_count] when none. *)
let rec next_bin t b =
  if b >= bin_count then bin_count
  else
    let w = b / bins_per_word in
    let m = t.binmap.(w) land (-1 lsl (b mod bins_per_word)) in
    if m <> 0 then (w * bins_per_word) + lowest_bit m else next_bin t ((w + 1) * bins_per_word)

(* Free-list surgery; fwd lives at c+8, bck at c+16. *)

let insert_free t c size =
  let b = bin_index size in
  let head = t.bins.(b) in
  write t (c + 8) head;
  write t (c + 16) 0;
  if head <> 0 then write t (head + 16) c;
  t.bins.(b) <- c;
  mark_bin t b

let unlink_free t c size =
  let b = bin_index size in
  let fwd = read t (c + 8) in
  let bck = read t (c + 16) in
  if bck = 0 then begin
    t.bins.(b) <- fwd;
    if fwd = 0 then clear_bin t b
  end
  else write t (bck + 8) fwd;
  if fwd <> 0 then write t (fwd + 16) bck

let new_segment t min_bytes =
  let pages = max default_segment_pages ((min_bytes + 16 + page_size - 1) / page_size) in
  match Pool.alloc_span t.pool pages with
  | None -> false
  | Some base ->
    let len = pages * page_size in
    (* Start and end sentinels: fake in-use chunks of size 0. *)
    write t base (tag ~size:0 ~used:true);
    write t (base + len - 8) (tag ~size:0 ~used:true);
    let c = base + 8 in
    let size = len - 16 in
    set_tags t c size false;
    insert_free t c size;
    t.segments <- { seg_base = base; seg_len = len } :: t.segments;
    true

(* First fit: scan the non-empty bins from the request's bin upward,
   walking each list. *)
let rec scan_bin t req b =
  let b = next_bin t b in
  if b >= bin_count then None else walk_bin t req b t.bins.(b)

and walk_bin t req b c =
  if c = 0 then scan_bin t req (b + 1)
  else
    let hdr = read t c in
    if chunk_size hdr >= req then Some (c, chunk_size hdr) else walk_bin t req b (read t (c + 8))

let find_fit t req = scan_bin t req (bin_index req)

let alloc t size =
  if size <= 0 then invalid_arg "Dlmalloc_model.alloc: non-positive size";
  Sim.Machine.charge t.machine cost_op_overhead;
  let req = max min_chunk (round16 (size + 16)) in
  let attempt () =
    match find_fit t req with
    | None -> None
    | Some (c, found_size) ->
      unlink_free t c found_size;
      let remainder = found_size - req in
      let size_taken =
        if remainder >= min_chunk then begin
          let r = c + req in
          set_tags t r remainder false;
          insert_free t r remainder;
          req
        end
        else found_size
      in
      set_tags t c size_taken true;
      Some c
  in
  let chunk =
    match attempt () with
    | Some c -> Some c
    | None -> if new_segment t req then attempt () else None
  in
  match chunk with
  | None -> None
  | Some c ->
    let payload = c + 8 in
    Hashtbl.replace t.live payload ();
    Alloc_stats.record_alloc t.stats (chunk_size (read t c) - 16);
    Some payload

let free t payload =
  if not (Hashtbl.mem t.live payload) then
    invalid_arg (Printf.sprintf "Dlmalloc_model.free: unknown or freed pointer 0x%x" payload);
  Hashtbl.remove t.live payload;
  Sim.Machine.charge t.machine cost_op_overhead;
  let c = payload - 8 in
  let hdr = read t c in
  if not (in_use hdr) then
    invalid_arg (Printf.sprintf "Dlmalloc_model.free: double free at 0x%x" payload);
  let size = chunk_size hdr in
  let footer = read t (c + size - 8) in
  if footer <> hdr then
    invalid_arg (Printf.sprintf "Dlmalloc_model.free: corrupted boundary tag at 0x%x" payload);
  Alloc_stats.record_free t.stats (size - 16);
  (* Coalesce with the following chunk. *)
  let c, size =
    let next = c + size in
    let next_hdr = read t next in
    if in_use next_hdr then (c, size)
    else begin
      let next_size = chunk_size next_hdr in
      unlink_free t next next_size;
      (c, size + next_size)
    end
  in
  (* Coalesce with the preceding chunk (its footer sits just below us). *)
  let c, size =
    let prev_footer = read t (c - 8) in
    if in_use prev_footer then (c, size)
    else begin
      let prev_size = chunk_size prev_footer in
      let prev = c - prev_size in
      unlink_free t prev prev_size;
      (prev, size + prev_size)
    end
  in
  set_tags t c size false;
  insert_free t c size

(* In-place resize: the classic dlmalloc fast paths.  Shrinking carves the
   tail into a free chunk; growing absorbs a free successor. *)
let try_resize t payload new_size =
  if not (Hashtbl.mem t.live payload) then
    invalid_arg (Printf.sprintf "Dlmalloc_model.try_resize: unknown pointer 0x%x" payload);
  Sim.Machine.charge t.machine cost_op_overhead;
  let c = payload - 8 in
  let size = chunk_size (read t c) in
  let needed = max min_chunk (round16 (new_size + 16)) in
  if needed <= size then begin
    (* Shrink (or exact fit): split the tail off when it makes a chunk. *)
    let remainder = size - needed in
    if remainder >= min_chunk then begin
      set_tags t c needed true;
      let r = c + needed in
      set_tags t r remainder false;
      (* Coalesce the remainder with a free successor before binning. *)
      let next = r + remainder in
      let next_hdr = read t next in
      let r, remainder =
        if in_use next_hdr then (r, remainder)
        else begin
          let next_size = chunk_size next_hdr in
          unlink_free t next next_size;
          let merged = remainder + next_size in
          set_tags t r merged false;
          (r, merged)
        end
      in
      insert_free t r remainder;
      Alloc_stats.record_free t.stats (size - needed)
    end;
    true
  end
  else begin
    let next = c + size in
    let next_hdr = read t next in
    if in_use next_hdr then false
    else begin
      let next_size = chunk_size next_hdr in
      if size + next_size < needed then false
      else begin
        unlink_free t next next_size;
        let total = size + next_size in
        let remainder = total - needed in
        if remainder >= min_chunk then begin
          set_tags t c needed true;
          let r = c + needed in
          set_tags t r remainder false;
          insert_free t r remainder;
          Alloc_stats.record_alloc t.stats (needed - size)
        end
        else begin
          set_tags t c total true;
          Alloc_stats.record_alloc t.stats (total - size)
        end;
        true
      end
    end
  end

let usable_size t payload =
  if Hashtbl.mem t.live payload then Some (chunk_size (read t (payload - 8)) - 16) else None

let owns t payload = Hashtbl.mem t.live payload

let stats t = t.stats

(* Heap validator for the property tests; uses privileged reads so it does
   not perturb cycle counts. *)
let check_heap t =
  let priv = Sim.Machine.priv_read_u64 t.machine in
  let exception Bad of string in
  try
    (* Collect every chunk threaded through the bins. *)
    let binned = Hashtbl.create 64 in
    Array.iteri
      (fun b head ->
        if bin_marked t b <> (head <> 0) then
          raise (Bad (Printf.sprintf "bin %d: binmap bit disagrees with head 0x%x" b head));
        let rec walk c steps =
          if c <> 0 then begin
            if steps > 1_000_000 then raise (Bad (Printf.sprintf "bin %d: cycle" b));
            if Hashtbl.mem binned c then raise (Bad (Printf.sprintf "bin %d: duplicate chunk" b));
            Hashtbl.add binned c ();
            walk (priv (c + 8)) (steps + 1)
          end
        in
        walk head 0)
      t.bins;
    let seen_free = ref 0 in
    List.iter
      (fun seg ->
        let first = seg.seg_base + 8 in
        let stop = seg.seg_base + seg.seg_len - 8 in
        if priv seg.seg_base <> tag ~size:0 ~used:true then raise (Bad "bad start sentinel");
        if priv stop <> tag ~size:0 ~used:true then raise (Bad "bad end sentinel");
        let rec walk c prev_free =
          if c > stop then raise (Bad "chunk walk overran segment")
          else if c = stop then ()
          else
            let hdr = priv c in
            let size = chunk_size hdr in
            if size < min_chunk || size mod 16 <> 0 then
              raise (Bad (Printf.sprintf "bad chunk size %d at 0x%x" size c));
            if priv (c + size - 8) <> hdr then
              raise (Bad (Printf.sprintf "footer mismatch at 0x%x" c));
            let free = not (in_use hdr) in
            if free then begin
              incr seen_free;
              if prev_free then raise (Bad (Printf.sprintf "uncoalesced free chunks at 0x%x" c));
              if not (Hashtbl.mem binned c) then
                raise (Bad (Printf.sprintf "free chunk 0x%x not in any bin" c))
            end
            else if not (Hashtbl.mem t.live (c + 8)) then
              raise (Bad (Printf.sprintf "in-use chunk 0x%x not in live set" c));
            walk (c + size) free
        in
        walk first false)
      t.segments;
    if !seen_free <> Hashtbl.length binned then
      raise
        (Bad
           (Printf.sprintf "free count mismatch: %d walked vs %d binned" !seen_free
              (Hashtbl.length binned)));
    Ok ()
  with Bad msg -> Error msg
