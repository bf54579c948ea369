"""Tests for SEU fault injection (paper ref. [16])."""

import pytest

from repro.aes.cipher import AES128
from repro.analysis.seu import CampaignResult, inject_once, run_campaign

KEY = bytes(range(16))
BLOCK = bytes.fromhex("00112233445566778899aabbccddeeff")


class TestSingleInjection:
    def test_state_flip_corrupts_output(self):
        # A bit flipped in a live state word early in the run must
        # avalanche into a wrong ciphertext.
        result = inject_once(KEY, BLOCK, "aes_state_0", bit=7,
                             cycle_offset=2)
        assert result.outcome == "corrupted"

    def test_output_register_flip_after_use_masked(self):
        # The Out register is rewritten at the result edge; flipping
        # it mid-run leaves the final value intact.
        result = inject_once(KEY, BLOCK, "aes_out_0", bit=0,
                             cycle_offset=5)
        assert result.outcome == "masked"

    def test_consumed_buffer_flip_masked(self):
        # The Data_In buffer was already consumed at block start.
        result = inject_once(KEY, BLOCK, "aes_buf_0", bit=3,
                             cycle_offset=10)
        assert result.outcome == "masked"

    def test_key_register_flip_corrupts(self):
        # Work word 0 is consumed at each round's first ByteSub cycle;
        # inject right after an M cycle (offset 20 = round 4's M) so
        # the flip is live when round 5 reads it.
        result = inject_once(KEY, BLOCK, "aes_ksu_work_0", bit=31,
                             cycle_offset=20)
        assert result.outcome == "corrupted"

    def test_key_register_flip_after_consumption_masked(self):
        # ...whereas a flip just after the word was consumed gets
        # overwritten by the round commit and never reaches the data.
        result = inject_once(KEY, BLOCK, "aes_ksu_work_0", bit=31,
                             cycle_offset=7)
        assert result.outcome == "masked"

    def test_offset_validated(self):
        with pytest.raises(ValueError):
            inject_once(KEY, BLOCK, "aes_state_0", 0, cycle_offset=50)

    def test_unknown_register(self):
        with pytest.raises(KeyError):
            inject_once(KEY, BLOCK, "nope", 0, 0)

    def test_golden_model_agreement_without_fault(self):
        # Sanity: offset injection into a totally dead register
        # reproduces the golden ciphertext.
        result = inject_once(KEY, BLOCK, "aes_buf_dir", bit=0,
                             cycle_offset=20)
        assert result.outcome == "masked"
        assert AES128(KEY).encrypt_block(BLOCK)  # golden path runs


class TestCampaign:
    CAMPAIGN = run_campaign(40, seed=2003)

    def test_total(self):
        assert self.CAMPAIGN.total == 40

    def test_outcomes_partition(self):
        c = self.CAMPAIGN
        assert c.count("corrupted") + c.count("masked") + \
            c.count("hung") == c.total

    def test_some_faults_corrupt(self):
        # Most registers are live datapath state: a random campaign
        # must produce real corruptions.
        assert self.CAMPAIGN.count("corrupted") > 5

    def test_some_faults_masked(self):
        assert self.CAMPAIGN.count("masked") > 0

    def test_deterministic_given_seed(self):
        again = run_campaign(40, seed=2003)
        assert [i.outcome for i in again.injections] == \
            [i.outcome for i in self.CAMPAIGN.injections]

    def test_seeded_outcomes_pinned(self):
        # Injection reads and deposits registers directly, so these
        # counts guard the register read and write paths too.
        c = self.CAMPAIGN
        assert (c.count("corrupted"), c.count("masked"),
                c.count("hung")) == (12, 28, 0)

    def test_seeded_hardened_outcomes_pinned(self):
        c = run_campaign(40, seed=2003, hardened=True)
        assert (c.count("masked"), c.count("corrupted"),
                c.count("detected"), c.count("hung")) == (37, 1, 2, 0)

    def test_by_register_totals(self):
        table = self.CAMPAIGN.by_register()
        assert sum(hits for hits, _ in table.values()) == 40

    def test_render(self):
        text = self.CAMPAIGN.render()
        assert "corruption rate" in text
        assert "sensitivity" in text

    def test_targeted_campaign(self):
        result = run_campaign(10, seed=1, targets=["aes_state_0"])
        assert set(i.register for i in result.injections) == \
            {"aes_state_0"}

    def test_state_registers_highly_sensitive(self):
        result = run_campaign(
            20, seed=5,
            targets=["aes_state_0", "aes_state_1",
                     "aes_state_2", "aes_state_3"],
        )
        # In-flight state flips essentially always corrupt.
        assert result.corruption_rate > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            run_campaign(0)
        with pytest.raises(ValueError):
            run_campaign(5, targets=["nope"])

    def test_empty_campaign_result(self):
        assert CampaignResult().corruption_rate == 0.0
