(** The machine-resident DOM.

    Node records, text payloads and attribute lists all live in simulated
    memory, allocated through the environment's global allocator with the
    browser's {!Sites} — so they are MT objects in every configuration
    that splits the heap, and tree traversals are checked machine loads
    performed by trusted code.

    Node handles are small integers (the values handed across the FFI to
    the engine); the id-to-address map is trusted host state. *)

type node = int

type t

val create : Pkru_safe.Env.t -> t
(** Builds an empty document with an ["html"] root. *)

val env : t -> Pkru_safe.Env.t
val root : t -> node
val node_count : t -> int

val create_element : t -> string -> node
val create_text : t -> string -> node

val append_child : t -> parent:node -> child:node -> unit
(** @raise Invalid_argument on unknown handles or if [child] already has a
    parent. *)

val remove_children : t -> node -> unit
(** Detaches and frees an element's entire subtree (records, text and
    attribute storage go back to the allocator). *)

val remove_child : t -> parent:node -> child:node -> unit
(** Detaches one child and frees its subtree.
    @raise Invalid_argument if [child] is not a child of [parent]. *)

val insert_before : t -> parent:node -> child:node -> before:node -> unit
(** Inserts an unattached [child] in front of existing child [before].
    @raise Invalid_argument on attachment violations. *)

val get_element_by_id : t -> string -> node option
(** Document-order scan for an element whose [id] attribute matches
    (checked machine reads, like a real tree walk). *)

val clone_subtree : t -> node -> node
(** Deep copy of a node: fresh records, attribute storage and text
    payloads; the clone is unattached. *)

val tag_name : t -> node -> string
val is_text : t -> node -> bool
val parent : t -> node -> node option
val children : t -> node -> node list
val child_count : t -> node -> int

val set_attribute : t -> node -> string -> string -> unit
val get_attribute : t -> node -> string -> string option
val attribute_count : t -> node -> int

(* {2 Interned-code access}

   Tag and attribute names share one monotonic intern table.  Compiled
   selectors ({!Selector.compile}) resolve names to codes host-side once
   and revalidate against {!tag_count}; the charged machine reads of a
   code-keyed probe are exactly those of the name-keyed one. *)

val tag_code : t -> node -> int
(** The node's interned tag code (one charged header read, like
    {!tag_name}). *)

val tag_count : t -> int
(** Names interned so far (monotonic; host-side, no charge). *)

val find_code : t -> string -> int option
(** Code for an already-interned name (host-side, no charge). *)

val attribute_by_code : t -> node -> int -> string option
(** {!get_attribute} given a pre-resolved name code: identical charged
    reads (attribute-chain walk + value bytes). *)

val split_classes : t -> string -> string list
(** The whitespace-separated classes of a [class] attribute value,
    memoized by content for this document (host-side, no charge). *)

val split_memo_cap : int
(** Size bound on the class-split memo.  When full, the memo is cleared;
    the number of evicted entries is added to {!split_memo_evicted}
    and counted into the machine's sink (if armed) as
    [selector_memo_evict] — a host-side counter only, never an event or
    a cycle. *)

val split_memo_evicted : t -> int
(** Entries evicted from this document's class-split memo so far. *)

val set_text : t -> node -> string -> unit
(** Replaces a text node's payload. @raise Invalid_argument on elements. *)

val text_of : t -> node -> string
(** A text node's payload. @raise Invalid_argument on elements. *)

val text_content : t -> node -> string
(** Concatenated descendant text (a checked-read tree walk). *)

val query_tag : t -> string -> node list
(** All elements with the given tag, in document order. *)

val serialize : t -> node -> string
(** innerHTML-style serialisation of the node's children. *)

(* {2 Buffer-returning variants used by the FFI bindings}

   These copy the result into a fresh allocation from the given site and
   return (address, length) — the object that then flows to the engine. *)

val text_to_buffer : t -> site:Runtime.Alloc_id.t -> string -> int * int

val free_buffer : t -> int -> unit
(** Returns a binding buffer to the allocator. *)
