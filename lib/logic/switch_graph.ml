type node = Vdd | Gnd | Out | Internal of int

type edge = {
  src : node;
  dst : node;
  gates : string list;
  polarity : Network.polarity;
}

type t = { mutable edges : edge list; mutable next_internal : int }

let create () = { edges = []; next_internal = 0 }
let add_edge t e = t.edges <- e :: t.edges
let edges t = List.rev t.edges

let fresh_internal t =
  let n = Internal t.next_internal in
  t.next_internal <- t.next_internal + 1;
  n

(* Expansion keeps series chains of plain devices as a single edge (one
   series gate set) and breaks at parallel branches with internal nodes —
   mirroring how diffusion strips are shared in a layout. *)
let rec add_network t ~polarity ~src ~dst net =
  match net with
  | Network.Device g ->
    add_edge t { src; dst; gates = [ g ]; polarity }
  | Network.Parallel branches ->
    List.iter (fun b -> add_network t ~polarity ~src ~dst b) branches
  | Network.Series parts ->
    let rec chain src = function
      | [] -> ()
      | [ last ] -> add_network t ~polarity ~src ~dst last
      | part :: rest ->
        (* merge consecutive plain devices into one edge *)
        let mid = fresh_internal t in
        add_network t ~polarity ~src ~dst:mid part;
        chain mid rest
    in
    (match all_devices parts with
    | Some gates -> add_edge t { src; dst; gates; polarity }
    | None -> chain src parts)

and all_devices parts =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Network.Device g :: rest -> go (g :: acc) rest
    | (Network.Series _ | Network.Parallel _) :: _ -> None
  in
  go [] parts

let edge_conducts env e =
  let on g =
    match e.polarity with
    | Network.N_type -> env g
    | Network.P_type -> not (env g)
  in
  List.for_all on e.gates

let conducting_between t env a b =
  if a = b then true
  else begin
    (* BFS over conducting edges *)
    let live = List.filter (edge_conducts env) t.edges in
    let visited = Hashtbl.create 16 in
    let rec bfs = function
      | [] -> false
      | n :: rest ->
        if n = b then true
        else if Hashtbl.mem visited n then bfs rest
        else begin
          Hashtbl.add visited n ();
          let next =
            List.filter_map
              (fun e ->
                if e.src = n then Some e.dst
                else if e.dst = n then Some e.src
                else None)
              live
          in
          bfs (next @ rest)
        end
    in
    bfs [ a ]
  end

type drive = High | Low | Fight | Floating

let output_drive t env =
  let to_vdd = conducting_between t env Out Vdd
  and to_gnd = conducting_between t env Out Gnd in
  match (to_vdd, to_gnd) with
  | true, false -> High
  | false, true -> Low
  | true, true -> Fight
  | false, false -> Floating

let value_of_drive = function
  | High -> Truth.T
  | Low -> Truth.F
  | Fight | Floating -> Truth.X

let drive_string = function
  | High -> "1"
  | Low -> "0"
  | Fight -> "fight"
  | Floating -> "float"

let drive_table t ~inputs =
  let n = List.length inputs in
  if n > 16 then invalid_arg "Switch_graph.drive_table: too many inputs";
  let idx name =
    let rec go k = function
      | [] -> invalid_arg ("Switch_graph.drive_table: unknown input " ^ name)
      | x :: rest -> if x = name then k else go (k + 1) rest
    in
    go 0 inputs
  in
  Array.init (1 lsl n) (fun i ->
      output_drive t (fun name -> (i lsr idx name) land 1 = 1))

let output_value t env = value_of_drive (output_drive t env)

let truth_table t ~inputs =
  Truth.of_fun ~inputs (fun env -> output_value t env)

let implements t e =
  let inputs = Expr.inputs e in
  let reference = Truth.of_expr (Expr.Not e) in
  Truth.equal (truth_table t ~inputs) reference

(* --- dense evaluation ---------------------------------------------------

   Nodes are small ints (Vdd = 0, Gnd = 1, Out = 2, internals after them)
   and a node set is an int bitmask.  An edge conducts under input row [r]
   when [r land mask = want]: [want = mask] for n-type (every gate high),
   [want = 0] for p-type (every gate low). *)

let vdd_id = 0
let gnd_id = 1
let out_id = 2
let max_dense_nodes = Sys.int_size - 1

(* edge [e] is [edges.(4e) .. edges.(4e + 3)] = src, dst, mask, want *)
type strays = { mutable count : int; mutable edges : int array }

let strays () = { count = 0; edges = Array.make 64 0 }
let clear_strays s = s.count <- 0
let stray_count s = s.count

let push_stray s ~src ~dst ~mask ~want =
  let at = 4 * s.count in
  if at = Array.length s.edges then
    s.edges <- Array.append s.edges (Array.make at 0);
  s.edges.(at) <- src;
  s.edges.(at + 1) <- dst;
  s.edges.(at + 2) <- mask;
  s.edges.(at + 3) <- want;
  s.count <- s.count + 1

type dense = {
  nodes : int;
  rows : int;
  comp : int array;
      (* [comp.(r * nodes + v)]: the node set of [v]'s connected component
         under the conducting base edges of row [r] *)
}

let dense ~nodes ~inputs base =
  if nodes > max_dense_nodes then
    invalid_arg
      (Printf.sprintf "Switch_graph.dense: %d nodes exceed the %d-bit mask"
         nodes max_dense_nodes);
  if inputs > 16 then invalid_arg "Switch_graph.dense: too many inputs";
  let rows = 1 lsl inputs in
  let comp = Array.make (rows * nodes) 0 in
  for r = 0 to rows - 1 do
    let at v = (r * nodes) + v in
    for v = 0 to nodes - 1 do
      comp.(at v) <- 1 lsl v
    done;
    (* merge endpoints of conducting edges until the partition is stable;
       a merged set is written back to every member *)
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (a, b, mask, want) ->
          if r land mask = want && comp.(at a) <> comp.(at b) then begin
            let m = comp.(at a) lor comp.(at b) in
            for v = 0 to nodes - 1 do
              if m land (1 lsl v) <> 0 then comp.(at v) <- m
            done;
            changed := true
          end)
        base
    done
  done;
  { nodes; rows; comp }

let dense_rows d = d.rows

(* The connected set of Out is grown from its base component: a
   conducting stray edge with exactly one endpoint inside adds the other
   endpoint's whole base component.  At the fixed point no conducting
   edge (base or stray) leaves the set, so it is exactly the set the BFS
   of [conducting_between] explores from Out. *)
let drives_into d s drives =
  let nodes = d.nodes and comp = d.comp and n = s.count and es = s.edges in
  for r = 0 to d.rows - 1 do
    let base = r * nodes in
    let set = ref comp.(base + out_id) in
    let changed = ref (n > 0) in
    while !changed do
      changed := false;
      for e = 0 to n - 1 do
        let at = 4 * e in
        if r land es.(at + 2) = es.(at + 3) then begin
          let a = es.(at) and b = es.(at + 1) in
          let ina = !set land (1 lsl a) <> 0
          and inb = !set land (1 lsl b) <> 0 in
          if ina <> inb then begin
            set := !set lor comp.(base + a) lor comp.(base + b);
            changed := true
          end
        end
      done
    done;
    drives.(r) <-
      (match
         (!set land (1 lsl vdd_id) <> 0, !set land (1 lsl gnd_id) <> 0)
       with
      | true, false -> High
      | false, true -> Low
      | true, true -> Fight
      | false, false -> Floating)
  done
