(** The shard map: which tables are hash-distributed on which column,
    which tables are replicated to every shard, and a generation counter
    versioning the whole layout (mixed into plan-cache keys so templates
    installed under one layout never serve another).

    Modeled on hash-distributed tables in MPP systems (Greenplum, the
    paper's backend; Citus): a {e distributed} table's rows are
    partitioned by a hash of the distribution column, a {e replicated}
    (reference) table is fully copied to every shard, and anything else
    is only present on the coordinator. *)

type t = {
  sm_shards : int;  (** number of shards (>= 1) *)
  mutable sm_distributed : (string * string) list;
      (** lowercase table name -> lowercase distribution column *)
  mutable sm_replicated : string list;  (** lowercase table names *)
  mutable sm_generation : int;
}

let create ~shards ~(distributions : (string * string) list) : t =
  if shards < 1 then invalid_arg "Shardmap.create: shards must be >= 1";
  {
    sm_shards = shards;
    sm_distributed =
      List.map
        (fun (t, c) ->
          (String.lowercase_ascii t, String.lowercase_ascii c))
        distributions;
    sm_replicated = [];
    (* generation starts at 1: an engine without a sharder keys its
       plan-cache entries with generation 0, so the two key spaces never
       overlap *)
    sm_generation = 1;
  }

let shards t = t.sm_shards
let generation t = t.sm_generation
let bump t = t.sm_generation <- t.sm_generation + 1

let distribution_of t table =
  List.assoc_opt (String.lowercase_ascii table) t.sm_distributed

let is_distributed t table = distribution_of t table <> None

let is_replicated t table =
  List.mem (String.lowercase_ascii table) t.sm_replicated

(** Known to exist on every shard (distributed or replicated). Tables
    outside this set — session temps, CTAS results the cluster did not
    broadcast — force coordinator-only execution. *)
let known t table = is_distributed t table || is_replicated t table

let add_replicated t table =
  let l = String.lowercase_ascii table in
  if not (List.mem l t.sm_replicated) then begin
    t.sm_replicated <- l :: t.sm_replicated;
    bump t
  end

(** Forget a table entirely (dropped, or mutated in a way the cluster
    cannot mirror onto the shards) — routing falls back to the
    coordinator for statements that mention it. *)
let remove_table t table =
  let l = String.lowercase_ascii table in
  if List.mem_assoc l t.sm_distributed || List.mem l t.sm_replicated then begin
    t.sm_distributed <- List.remove_assoc l t.sm_distributed;
    t.sm_replicated <- List.filter (fun n -> n <> l) t.sm_replicated;
    bump t
  end

(* ------------------------------------------------------------------ *)
(* Hash partitioning                                                   *)
(* ------------------------------------------------------------------ *)

(* FNV-1a over the value's canonical text: stable across runs (no seed),
   so a literal in a query pins to the same shard that ingested the row *)
let hash_string (s : string) : int =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

(* The canonical text of a value's key class under Pgdb.Exec.gkey_of, so
   the values one class holds (5 and 5.0, -0.0 and 0) live on one shard
   and a literal pins the shard of the rows it groups with. Text is the
   string itself; an integral number within ±2^53, or beyond it, its
   decimal digits; any other double its 17 significant digits, which
   are exact. *)
let canon (v : Pgdb.Value.t) : string =
  match Pgdb.Exec.gkey_of v with
  | Pgdb.Exec.GNull -> "\x00null"
  | Pgdb.Exec.GStr s -> s
  | Pgdb.Exec.GNan -> "nan"
  | Pgdb.Exec.GBig x -> Int64.to_string x
  | Pgdb.Exec.GNum f when Float.is_integer f && Float.abs f <= 0x1p53 ->
      Int64.to_string (Int64.of_float f)
  | Pgdb.Exec.GNum f -> Printf.sprintf "%.17g" f

(** The shard owning rows whose distribution column holds [v]. *)
let shard_of_value t (v : Pgdb.Value.t) : int =
  hash_string (canon v) mod t.sm_shards

(** The shard owning rows pinned by a literal equality on the
    distribution column. *)
let shard_of_lit t (l : Sqlast.Ast.lit) : int =
  shard_of_value t (Pgdb.Value.of_lit l)
