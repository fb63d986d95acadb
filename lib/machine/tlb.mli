(** A per-hart, direct-mapped software TLB for the simulated memory path.

    Caches [page number -> (page, permission mask)] so the common case of
    {!Machine}'s checked accesses — same few pages, unchanged PKRU — skips
    the page-table Hashtbl, the region walk and the PKRU decode entirely.
    Modelled on QEMU's softmmu TLB; the invalidation discipline (precise
    invalidation on every PKRU-affecting transition) follows Garmr's
    argument for why cached PKU checks must be revalidated.

    Entries are validated against three things on every lookup:
    {ul
    {- the page table's {e mapping epoch} (bumped by reserve / map_now /
       mprotect / pkey_mprotect — see {!Vmm.Page_table.epoch});}
    {- the hart's {e PKRU epoch} (bumped by every write through
       {!Cpu.set_pkru} / {!Cpu.wrpkru});}
    {- the raw PKRU value the mask was computed under, which also catches
       direct [cpu.pkru <- ...] stores that bypass the setter.}}

    The TLB is architecturally invisible: lookups and fills charge no
    cycles and emit no telemetry events, so cycle counts, fault sequences
    and event traces are bit-identical with the TLB on or off. *)

type t

val size : int
(** Number of direct-mapped entries (256). *)

val create : unit -> t
(** An empty TLB (every entry invalid). *)

(* {2 Access-kind bits}

   The permission mask ORs these; a lookup hits only when the entry's mask
   includes the requested bit. *)

val read_bit : int
val write_bit : int
val execute_bit : int

val access_bit : Vmm.Fault.access -> int

(* {2 The fast path} *)

val lookup :
  t ->
  map_epoch:int ->
  pkru_epoch:int ->
  pkru:Mpk.Pkru.t ->
  access_bit:int ->
  int ->
  bool
(** [lookup t ~map_epoch ~pkru_epoch ~pkru ~access_bit page_number] is
    [true] when the entry for [page_number] is present, current under both
    epochs and the PKRU value, and permits the access.  The page is then
    {!cached_page}.  Counts one hit or miss, and one flush generation per
    epoch change first observed. *)

val probe :
  t ->
  map_epoch:int ->
  pkru_epoch:int ->
  pkru:Mpk.Pkru.t ->
  access_bit:int ->
  int ->
  bool
(** {!lookup} that counts a hit but not a miss, for a caller that falls
    back to {!lookup} on [false] (so the access records one miss, not
    two).  Flush generations are counted as in {!lookup}. *)

val cached_page : t -> int -> Vmm.Page.t
(** The page cached in [page_number]'s slot — only meaningful immediately
    after a [lookup] that returned [true] for the same page number. *)

val fill : t -> map_epoch:int -> pkru_epoch:int -> pkru:Mpk.Pkru.t -> int -> Vmm.Page.t -> unit
(** Installs the slow path's resolved page, precomputing the permission
    mask from the page's protection, its key and [pkru]. *)

val flush : t -> unit
(** Invalidates every entry (counted as one flush). *)

(* {2 Statistics} *)

type stats = {
  hits : int;
  misses : int;
  flushes : int; (** invalidation generations observed + explicit flushes *)
}

val stats : t -> stats
val add_stats : stats -> stats -> stats
val zero_stats : stats

val hit_rate : stats -> float
(** [hits / (hits + misses)], 0 when no lookups were made. *)
