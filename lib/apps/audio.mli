(** Synthetic audio for the voice-assistant scenario (paper, 6.5.1).

    16-bit mono PCM: background room noise with occasional louder
    voice-like bursts that the trigger scanner detects.  Deterministic
    given the generator seed. *)

type t = { sample_rate : int; samples : int array }

(** [room_audio rng ~seconds] synthesizes [seconds] of 16 kHz audio with a
    voice burst every 2 seconds. *)
val room_audio : M3v_sim.Rng.t -> seconds:float -> unit -> t

(** Short-window energy, used by the trigger scanner. *)
val window_energy : t -> off:int -> len:int -> float

(** Serialize samples as little-endian 16-bit PCM. *)
val to_pcm_bytes : int array -> bytes

val of_pcm_bytes : bytes -> int array
