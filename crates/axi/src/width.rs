//! The 64→32-bit stream width converter.
//!
//! The DMA's stream side is 64 bits wide (Fig. 1: "AXI-Stream 64-Bits") while
//! the ICAP accepts 32-bit words. The converter runs in the over-clock
//! domain and emits **at most one 32-bit word per cycle**, which makes the
//! ICAP-side byte rate exactly `4 B × f` — the linear region of Fig. 5.

use pdr_sim_core::json::{Json, JsonError, ToJson};
use pdr_sim_core::{
    impl_json_struct, Component, Consumer, EdgeCtx, NextWake, Producer, WakeSource, Waker,
};

use crate::stream::StreamBeat;

/// A 32-bit word on the ICAP-side stream, with end-of-packet marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Word32 {
    /// The data word.
    pub data: u32,
    /// True on the final word of the transfer.
    pub last: bool,
}

impl_json_struct!(Word32 { data, last });

/// The width-converter component. Bind it to the over-clock domain.
#[derive(Debug)]
pub struct Width64To32 {
    name: String,
    input: Consumer<StreamBeat>,
    output: Producer<Word32>,
    /// Pending high half of a popped beat.
    carry: Option<Word32>,
    words_out: u64,
}

impl Width64To32 {
    /// Creates a converter between the given endpoints.
    pub fn new(name: &str, input: Consumer<StreamBeat>, output: Producer<Word32>) -> Self {
        Width64To32 {
            name: name.to_string(),
            input,
            output,
            carry: None,
            words_out: 0,
        }
    }

    /// Words emitted so far.
    pub fn words_out(&self) -> u64 {
        self.words_out
    }
}

impl Component for Width64To32 {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, _ctx: &mut EdgeCtx<'_>) {
        if !self.output.can_push() {
            return;
        }
        let word = match self.carry.take() {
            Some(w) => w,
            None => match self.input.pop() {
                Some(beat) => {
                    let [lo, hi] = beat.halves();
                    self.carry = Some(Word32 {
                        data: hi,
                        last: beat.last,
                    });
                    Word32 {
                        data: lo,
                        last: false,
                    }
                }
                None => return,
            },
        };
        self.output.try_push(word).expect("checked can_push");
        self.words_out += 1;
    }

    fn sensitivity(&self, waker: &Waker) {
        // The DMA pushing a beat and the ICAP popping a word.
        self.input.subscribe(waker);
        self.output.subscribe(waker);
    }

    fn next_wake(&self, _now_cycle: u64) -> NextWake {
        // Blocked output or nothing buffered and nothing arriving: the edge
        // is a pure no-op until a beat arrives or a word slot frees up.
        if !self.output.can_push() || (self.carry.is_none() && self.input.is_empty()) {
            NextWake::Idle
        } else {
            NextWake::EveryCycle
        }
    }

    fn snapshot_state(&self) -> Json {
        // The converter is the unique consumer of the 64-bit beat FIFO.
        Json::Obj(vec![
            ("carry".to_string(), self.carry.to_json()),
            ("words_out".to_string(), self.words_out.to_json()),
            ("input".to_string(), self.input.fifo().snapshot_json()),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        self.carry = state.field("carry")?;
        self.words_out = state.field("words_out")?;
        self.input.fifo().restore_json(state.required("input")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_sim_core::{fifo_channel, Engine, Frequency, SimDuration};

    #[test]
    fn splits_beats_low_half_first_and_marks_last() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("oc", Frequency::from_mhz(200));
        let (beat_tx, beat_rx) = fifo_channel("in", 8);
        let (word_tx, word_rx) = fifo_channel("out", 8);
        e.add_component(Width64To32::new("wc", beat_rx, word_tx), Some(clk));
        beat_tx
            .try_push(StreamBeat::full(0x1111_2222_3333_4444, false))
            .unwrap();
        beat_tx
            .try_push(StreamBeat::full(0x5555_6666_7777_8888, true))
            .unwrap();
        e.run_for(SimDuration::from_nanos(40)); // 8 cycles
        let words: Vec<Word32> = std::iter::from_fn(|| word_rx.pop()).collect();
        assert_eq!(
            words,
            vec![
                Word32 {
                    data: 0x3333_4444,
                    last: false
                },
                Word32 {
                    data: 0x1111_2222,
                    last: false
                },
                Word32 {
                    data: 0x7777_8888,
                    last: false
                },
                Word32 {
                    data: 0x5555_6666,
                    last: true
                },
            ]
        );
    }

    #[test]
    fn emits_one_word_per_cycle() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("oc", Frequency::from_mhz(100));
        let (beat_tx, beat_rx) = fifo_channel("in", 64);
        let (word_tx, word_rx) = fifo_channel("out", 256);
        let id = e.add_component(Width64To32::new("wc", beat_rx, word_tx), Some(clk));
        for i in 0..32u64 {
            beat_tx.try_push(StreamBeat::full(i, i == 31)).unwrap();
        }
        e.run_for(SimDuration::from_nanos(100)); // 10 cycles → exactly 10 words
        assert_eq!(word_rx.len(), 10);
        e.run_for(SimDuration::from_micros(1));
        assert_eq!(word_rx.len(), 64);
        assert_eq!(e.component::<Width64To32>(id).words_out(), 64);
    }

    #[test]
    fn respects_output_backpressure() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("oc", Frequency::from_mhz(100));
        let (beat_tx, beat_rx) = fifo_channel("in", 8);
        let (word_tx, word_rx) = fifo_channel("out", 1);
        e.add_component(Width64To32::new("wc", beat_rx, word_tx), Some(clk));
        beat_tx.try_push(StreamBeat::full(0xAB, true)).unwrap();
        e.run_for(SimDuration::from_micros(1));
        // Only one word fits; nothing may be lost.
        assert_eq!(word_rx.len(), 1);
        assert_eq!(word_rx.pop().unwrap().data, 0xAB);
        e.run_for(SimDuration::from_micros(1));
        let w = word_rx.pop().unwrap();
        assert_eq!(w.data, 0);
        assert!(w.last);
    }
}
