type record = {
  addr : int;
  size : int;
  alloc_id : Alloc_id.t;
}

module Addr_map = Map.Make (Int)

type t = { mutable by_base : record Addr_map.t }

let create () = { by_base = Addr_map.empty }

let on_alloc t ~addr ~size ~alloc_id =
  t.by_base <- Addr_map.add addr { addr; size; alloc_id } t.by_base

let on_dealloc t ~addr = t.by_base <- Addr_map.remove addr t.by_base

let on_realloc t ~old_addr ~new_addr ~new_size =
  match Addr_map.find_opt old_addr t.by_base with
  | None -> ()
  | Some record ->
    t.by_base <- Addr_map.remove old_addr t.by_base;
    t.by_base <-
      Addr_map.add new_addr { addr = new_addr; size = new_size; alloc_id = record.alloc_id }
        t.by_base

let lookup t a =
  (* Greatest base <= a, then a range check: objects never overlap. *)
  match Addr_map.find_last_opt (fun base -> base <= a) t.by_base with
  | Some (_, record) when a < record.addr + record.size -> Some record
  | Some _ | None -> None

let find t addr = Addr_map.find_opt addr t.by_base

let live_count t = Addr_map.cardinal t.by_base

(* Live records in ascending base-address order, so any aggregation over
   the table is deterministic. *)
let iter f t = Addr_map.iter (fun _base record -> f record) t.by_base
