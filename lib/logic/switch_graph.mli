(** Switch-level conduction graphs.

    A cell layout — intended or corrupted by mispositioned CNTs — induces a
    multigraph whose nodes are metal contacts (Vdd, Gnd, Out, internal) and
    whose edges are conduction channels controlled by a *series set* of
    gates of one polarity.  Evaluating the graph under every input
    assignment recovers the cell's (possibly ternary) output function,
    which the fault simulator compares against the intended truth table. *)

type node = Vdd | Gnd | Out | Internal of int

type edge = {
  src : node;
  dst : node;
  gates : string list;  (** all must conduct for the edge to conduct *)
  polarity : Network.polarity;
}

type t

val create : unit -> t
val add_edge : t -> edge -> unit
val edges : t -> edge list

val add_network : t -> polarity:Network.polarity -> src:node -> dst:node
  -> Network.t -> unit
(** Expand a series/parallel network into edges between [src] and [dst],
    allocating internal nodes for series junctions. *)

val fresh_internal : t -> node

val conducting_between : t -> (string -> bool) -> node -> node -> bool
(** Is there a conducting path between the two nodes under the assignment? *)

type drive = High | Low | Fight | Floating
(** What actually drives [Out] under one assignment.  {!Truth.value}
    collapses [Fight] and [Floating] into a single [X]; fault diagnosis
    needs them apart — a rail fight is a short (the Fig. 2 failure mode),
    a floating output is an open. *)

val output_drive : t -> (string -> bool) -> drive
(** [High] when [Out] is connected to Vdd only, [Low] when to Gnd only,
    [Fight] when to both, [Floating] when to neither. *)

val value_of_drive : drive -> Truth.value
(** [High -> T], [Low -> F], [Fight | Floating -> X]. *)

val drive_string : drive -> string
(** ["1"], ["0"], ["fight"] or ["float"] — report and protocol spelling. *)

val drive_table : t -> inputs:string list -> drive array
(** {!output_drive} tabulated over all assignments of [inputs], indexed
    like {!Truth} rows (row [i] assigns input [k] the bit
    [(i lsr k) land 1]).
    @raise Invalid_argument for more than 16 inputs. *)

val output_value : t -> (string -> bool) -> Truth.value
(** [value_of_drive (output_drive t env)]: [T] when connected to Vdd only,
    [F] when to Gnd only, [X] when to both (fight) or neither (floating). *)

val truth_table : t -> inputs:string list -> Truth.t
(** Tabulated {!output_value} over all assignments of [inputs]. *)

val implements : t -> Expr.t -> bool
(** Does the graph implement [F = (e)'] for the positive expression [e]? *)

(** {1 Dense evaluation}

    The fault-injection hot path evaluates one fixed graph plus a few
    stray edges per trial.  In dense form nodes are small ints —
    {!vdd_id}, {!gnd_id}, {!out_id}, internals after them — node sets are
    int bitmasks, and an edge is [(src, dst, mask, want)]: it conducts
    under input row [r] (row indexing as in {!drive_table}) when
    [r land mask = want], with [mask] the bits of its gate inputs and
    [want = mask] for n-type, [0] for p-type edges. *)

val vdd_id : int
val gnd_id : int
val out_id : int

val max_dense_nodes : int
(** Node count a bitmask can hold ([Sys.int_size - 1]). *)

type strays
(** A growable buffer of dense stray edges, reused across trials. *)

val strays : unit -> strays
val clear_strays : strays -> unit
val stray_count : strays -> int
val push_stray : strays -> src:int -> dst:int -> mask:int -> want:int -> unit

type dense
(** A base graph compiled for dense evaluation: per input row, the
    connected components of its conducting base edges.  Immutable. *)

val dense : nodes:int -> inputs:int -> (int * int * int * int) list -> dense
(** [dense ~nodes ~inputs base] compiles the base edges [(src, dst, mask,
    want)] over [nodes] node ids and [2^inputs] rows.
    @raise Invalid_argument above {!max_dense_nodes} nodes or 16
    inputs. *)

val dense_rows : dense -> int

val drives_into : dense -> strays -> drive array -> unit
(** [drives_into d s drives] writes, for every row, what drives [Out] in
    the base graph plus the stray edges of [s] — the relation
    {!output_drive} computes with two searches, here as one bitmask
    closure per row.  Allocates nothing. *)
