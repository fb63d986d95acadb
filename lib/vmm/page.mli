(** A single materialised page: backing bytes plus its page-table-entry
    attributes (protection bits and MPK key). *)

type t = {
  data : Bytes.t;
  mutable prot : Prot.t;
  mutable pkey : Mpk.Pkey.t;
}

val create : prot:Prot.t -> pkey:Mpk.Pkey.t -> t
(** Fresh zeroed page. *)

val placeholder : unit -> t
(** A data-less, inaccessible page ([Prot.none], default key, empty
    [data]) for filling slots that never hold a real page, such as unused
    TLB entries. *)
