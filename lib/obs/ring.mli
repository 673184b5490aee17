(** A bounded, lock-guarded ring: the store behind the flight recorder,
    the trace-export ring, the explain ring, the log tail and the
    time-series snapshots. The coordinator and shard worker domains
    push, admin readers (the HTTP thread, in-band [.hq.*] queries) read.
    A full ring overwrites its oldest entry. *)

type 'a t

(** Raises [Invalid_argument] when [capacity < 1]. *)
val create : int -> 'a t

val capacity : 'a t -> int

(** Entries held; never exceeds {!capacity}. *)
val size : 'a t -> int

(** Entries pushed since creation or the last {!clear}. *)
val pushed : 'a t -> int

val push : 'a t -> 'a -> unit

(** The newest [n] entries, newest first. *)
val recent : 'a t -> int -> 'a list

val clear : 'a t -> unit
