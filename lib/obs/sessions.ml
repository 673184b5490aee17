type state = Idle | Active

let state_name = function Idle -> "idle" | Active -> "active"

type session = {
  s_conn : int;
  mutable s_user : string;
  s_connected_ts : float;  (** wall clock at registration *)
  mutable s_queries : int;  (** completed queries *)
  mutable s_state : state;
  mutable s_query : string;  (** current (active) or last (idle) query *)
  mutable s_fingerprint : string;
  mutable s_trace_id : string;  (** current or last query's trace id *)
  mutable s_started_ns : int64;  (** monotonic start of the current query *)
}

type t = {
  mutable next_conn : int;
  tbl : (int, session) Hashtbl.t;
  mutable connects_total : int;
  mutable disconnects_total : int;
}

let create () =
  { next_conn = 0; tbl = Hashtbl.create 16; connects_total = 0; disconnects_total = 0 }

let register ?(user = "?") t : session =
  t.next_conn <- t.next_conn + 1;
  t.connects_total <- t.connects_total + 1;
  let s =
    {
      s_conn = t.next_conn;
      s_user = user;
      s_connected_ts = Unix.gettimeofday ();
      s_queries = 0;
      s_state = Idle;
      s_query = "";
      s_fingerprint = "";
      s_trace_id = "";
      s_started_ns = 0L;
    }
  in
  Hashtbl.replace t.tbl s.s_conn s;
  s

let set_user (s : session) (user : string) = s.s_user <- user

let query_started (s : session) ~(query : string) ~(fingerprint : string) =
  s.s_state <- Active;
  s.s_query <- query;
  s.s_fingerprint <- fingerprint;
  s.s_trace_id <- "";
  s.s_started_ns <- Clock.now_ns ()

let set_trace (s : session) (trace_id : string) = s.s_trace_id <- trace_id

let query_finished (s : session) =
  s.s_state <- Idle;
  s.s_queries <- s.s_queries + 1

(** Nanoseconds the current query has been running; [0L] when idle. *)
let elapsed_ns (s : session) : int64 =
  if s.s_state = Active then Int64.sub (Clock.now_ns ()) s.s_started_ns
  else 0L

let unregister t (s : session) =
  if Hashtbl.mem t.tbl s.s_conn then begin
    Hashtbl.remove t.tbl s.s_conn;
    t.disconnects_total <- t.disconnects_total + 1
  end

let find t (conn : int) : session option = Hashtbl.find_opt t.tbl conn

(** Every registered session, ordered by connection id. *)
let list t : session list =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.tbl []
  |> List.sort (fun a b -> compare a.s_conn b.s_conn)

(** Sessions with a query in flight right now. *)
let active t : session list = List.filter (fun s -> s.s_state = Active) (list t)

let size t = Hashtbl.length t.tbl
let connects_total t = t.connects_total
let disconnects_total t = t.disconnects_total

(** The first [n] (default: all) sessions by connection id as the
    relation behind [.hq.activity] and [GET /activity.json] (the
    proxy's [pg_stat_activity]). *)
let relation ?n t : Relation.t =
  Relation.make ?n
    Relation.
      [
        int "conn" (fun s -> s.s_conn);
        str "user" (fun s -> s.s_user);
        str "state" (fun s -> state_name s.s_state);
        float "connected_ts" (fun s -> s.s_connected_ts);
        int "queries" (fun s -> s.s_queries);
        str "query" (fun s -> s.s_query);
        str "fingerprint" (fun s -> s.s_fingerprint);
        str "trace_id" (fun s -> s.s_trace_id);
        float "elapsed_ms" (fun s -> Int64.to_float (elapsed_ns s) /. 1e6);
      ]
    (list t)
