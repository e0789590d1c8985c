/**
 * @file
 * Quantization-aware training loop with optional LHR regularization.
 *
 * The original paper fine-tunes real networks (PyTorch QAT per
 * [Nagel et al. 2021]) on their datasets.  Offline we substitute the
 * task loss with a weight-anchor proxy: deviating from the pretrained
 * weights costs accuracy, staying costs nothing.  This preserves the
 * exact tension LHR negotiates -- the regularizer pulls weights toward
 * low-hamming integers, the task term pulls them back -- and the exact
 * gradient of Equation 5/6 is used for the LHR term.  The measured
 * weight displacement feeds the accuracy proxy in src/workload.
 */

#ifndef AIM_QUANT_QAT_TRAINER_HH
#define AIM_QUANT_QAT_TRAINER_HH

#include <string>
#include <vector>

#include "quant/Quantizer.hh"

namespace aim::quant
{

/** A float weight tensor undergoing quantization fine-tuning. */
struct FloatLayer
{
    std::string name;
    /** Trainable weights (initialized to the pretrained values). */
    std::vector<float> weights;
    /** Frozen pretrained anchor w0. */
    std::vector<float> pretrained;
    /** Logical GEMM rows (output channels). */
    int rows = 0;
    /** Logical GEMM cols (reduction dimension). */
    int cols = 0;
    /**
     * Task-loss sensitivity of this layer (how much accuracy suffers
     * per unit of weight perturbation); workload models set this.
     */
    double sensitivity = 1.0;
    /** Optional pruning mask (empty = dense; 0 entries stay zero). */
    std::vector<uint8_t> mask;
};

/** Hyper-parameters of the QAT fine-tuning loop. */
struct QatConfig
{
    /** Quantization bit width. */
    int bits = 8;
    /** LHR strength lambda from Equation 6 (0 = baseline QAT [64]). */
    double lambda = 0.0;
    /** Gradient-descent iterations. */
    int epochs = 80;
    /** Learning rate in scaled-weight (LSB) units. */
    double lr = 0.8;
    /** Multiplicative learning-rate decay per epoch. */
    double lrDecay = 0.98;
    /**
     * Anchor deadzone [LSB]: fine-tuning recovers movements smaller
     * than this (the task loss is locally flat around a trained
     * optimum), so only the excess displacement is penalized.
     */
    double deadzoneLsb = 3.0;
    /** Anchor stiffness beyond the deadzone. */
    double anchorStrength = 3.0;
    /**
     * Initial SGD-noise amplitude [LSB].  Stands in for mini-batch
     * gradient noise, which lets weights escape shallow local minima
     * of the hamming landscape; decays multiplicatively per epoch.
     */
    double noiseLsb = 1.0;
    /** Noise decay per epoch. */
    double noiseDecay = 0.96;
    /** Seed of the training-noise stream. */
    uint64_t seed = 97;
};

/** Outcome of a QAT run across a network. */
struct QatResult
{
    /** Quantized layers (round-to-nearest of the trained weights). */
    std::vector<QuantizedLayer> layers;
    /** Per-layer average HR after quantization. */
    std::vector<double> layerHr;
    /**
     * Per-layer mean squared displacement of the quantized weights
     * from the pretrained anchor, in LSB^2 units.  Pure rounding noise
     * contributes ~1/12; LHR movement adds on top.
     */
    std::vector<double> layerDevLsb2;
    /**
     * Per-layer mean squared displacement *beyond* the fine-tuning
     * deadzone, in LSB^2.  This is the unrecoverable part that the
     * accuracy proxy charges.
     */
    std::vector<double> layerExcessLsb2;

    /** Average HR across layers. */
    double hrAverage() const;
    /** Maximum per-layer HR. */
    double hrMax() const;
    /** Sensitivity-weighted total displacement (accuracy-proxy input). */
    double weightedDeviation(const std::vector<FloatLayer> &ref) const;
};

/** Gradient-descent QAT with the Equation 5/6 LHR term. */
class QatTrainer
{
  public:
    explicit QatTrainer(QatConfig cfg);

    /**
     * Fine-tune and quantize a network.  Layer weights are modified in
     * place; the returned result holds the quantized tensors.
     *
     * Layers train independently (each seeds its noise from
     * (cfg.seed, layer name)), so run() fans them out with
     * exec::ExecPool::parallelFor on a pool it creates for the call:
     * one thread per layer, up to the hardware concurrency, so the
     * lambda = 0 baseline quantizes its layers in parallel too.
     * Each layer writes only its own result slots, so the result is
     * bit-identical to handling the layers one after another.  The
     * pool is call-local on purpose: run() is itself called from the
     * items of a sweep's pool, where that busy pool would train the
     * layers inline.
     */
    QatResult run(std::vector<FloatLayer> &layers) const;

    /** Fine-tune one layer in place; returns its final average HR. */
    double trainLayer(FloatLayer &layer, double scale) const;

  private:
    QatConfig cfg;
};

/**
 * Quantize a network without any fine-tuning -- the baseline [64]
 * configuration every paper table compares against.
 */
QatResult quantizeBaseline(std::vector<FloatLayer> &layers, int bits);

} // namespace aim::quant

#endif // AIM_QUANT_QAT_TRAINER_HH
