//! Synthetic Yahoo!-Answers-like dataset: questions and users described by
//! words, activity measured in answers written.
//!
//! Users have topical interests over a word vocabulary; questions belong to
//! topics; a user's document is the concatenation of words from the
//! (virtual) answers they wrote, which are drawn mostly from their
//! interests.  Question capacities are uniform (Section 6), so
//! `item_quality` is constant and the dataset uses the
//! [`ItemCapacityPolicy::Uniform`] policy.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smr_text::Document;

use crate::powerlaw::{PowerLawSampler, ZipfSampler};
use crate::social::{ItemCapacityPolicy, SocialDataset};

/// Configuration of the Yahoo!-Answers-like generator.
#[derive(Debug, Clone)]
pub struct AnswersGenerator {
    /// Number of questions (items).
    pub num_questions: usize,
    /// Number of users (consumers).
    pub num_users: usize,
    /// Word vocabulary size.
    pub vocabulary: usize,
    /// Number of topics; each topic is a Zipf distribution over a slice of
    /// the vocabulary.
    pub num_topics: usize,
    /// Words per question.
    pub words_per_question: usize,
    /// Words contributed by each answer a user writes.
    pub words_per_answer: usize,
    /// Zipf exponent inside a topic.
    pub word_exponent: f64,
    /// Power-law exponent of user activity (answers written).
    pub activity_exponent: f64,
    /// Maximum activity value.
    pub max_activity: u64,
    /// Probability that a word is drawn from the active topic rather than
    /// the background distribution.
    pub topicality: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnswersGenerator {
    fn default() -> Self {
        AnswersGenerator {
            num_questions: 800,
            num_users: 200,
            vocabulary: 600,
            num_topics: 20,
            words_per_question: 10,
            words_per_answer: 8,
            word_exponent: 1.05,
            activity_exponent: 1.7,
            max_activity: 300,
            topicality: 0.8,
            seed: 42,
        }
    }
}

impl AnswersGenerator {
    /// Generates the dataset in memory: one question document per
    /// question and one user document per user, each in id order.
    pub fn generate(&self) -> SocialDataset {
        assert!(self.num_questions > 0 && self.num_users > 0);
        assert!(self.num_topics > 0 && self.vocabulary >= self.num_topics);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let words_per_topic = self.vocabulary / self.num_topics;
        let topic_sampler = ZipfSampler::new(self.num_topics, 1.0);
        let word_sampler = ZipfSampler::new(words_per_topic.max(1), self.word_exponent);
        let background_sampler = ZipfSampler::new(self.vocabulary, self.word_exponent);
        let activity_sampler = PowerLawSampler::new(self.max_activity, self.activity_exponent);

        let draw_word = |rng: &mut StdRng, topic: usize| -> usize {
            if rng.gen::<f64>() < self.topicality {
                topic * words_per_topic + word_sampler.sample(rng)
            } else {
                background_sampler.sample(rng)
            }
        };

        // Questions: one topic each.
        let mut items = Vec::with_capacity(self.num_questions);
        for q in 0..self.num_questions {
            let topic = topic_sampler.sample(&mut rng);
            let words: Vec<String> = (0..self.words_per_question)
                .map(|_| format!("word{}", draw_word(&mut rng, topic)))
                .collect();
            items.push(Document::new(format!("question-{q}"), words.join(" ")));
        }

        // Users: a couple of preferred topics; their document accumulates
        // the words of the answers they wrote.
        let mut consumers = Vec::with_capacity(self.num_users);
        let mut consumer_activity = Vec::with_capacity(self.num_users);
        for u in 0..self.num_users {
            let answers = activity_sampler.sample(&mut rng);
            consumer_activity.push(answers);
            let favourite_topics: Vec<usize> =
                (0..2).map(|_| topic_sampler.sample(&mut rng)).collect();
            let mut words = Vec::new();
            // Cap the document length so highly active users do not
            // produce megabyte-sized profiles.
            let effective_answers = answers.min(40);
            for _ in 0..effective_answers.max(1) {
                let topic = favourite_topics[rng.gen_range(0..favourite_topics.len())];
                for _ in 0..self.words_per_answer {
                    words.push(format!("word{}", draw_word(&mut rng, topic)));
                }
            }
            consumers.push(Document::new(format!("user-{u}"), words.join(" ")));
        }

        let dataset = SocialDataset {
            name: "yahoo-answers-synthetic".to_string(),
            items,
            consumers,
            // Questions have no quality signal: uniform capacities.
            item_quality: vec![1; self.num_questions],
            consumer_activity,
            item_capacity_policy: ItemCapacityPolicy::Uniform,
        };
        debug_assert!(dataset.validate().is_ok());
        dataset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AnswersGenerator {
        AnswersGenerator {
            num_questions: 50,
            num_users: 20,
            vocabulary: 120,
            num_topics: 6,
            seed: 5,
            ..AnswersGenerator::default()
        }
    }

    #[test]
    fn generates_a_valid_uniform_capacity_dataset() {
        let d = small().generate();
        assert_eq!(d.num_items(), 50);
        assert_eq!(d.num_consumers(), 20);
        assert!(d.validate().is_ok());
        assert_eq!(d.item_capacity_policy, ItemCapacityPolicy::Uniform);
        let caps = d.capacities(1.0);
        // All questions get the same capacity.
        let first = caps.item_capacities()[0];
        assert!(caps.item_capacities().iter().all(|&c| c == first));
    }

    #[test]
    fn generation_is_reproducible() {
        let a = small().generate();
        let b = small().generate();
        assert_eq!(a.items, b.items);
        assert_eq!(a.consumers, b.consumers);
    }

    #[test]
    fn questions_and_users_share_topical_words() {
        let d = small().generate();
        let overlap = d.items.iter().any(|q| {
            d.consumers.iter().any(|u| {
                q.text
                    .split_whitespace()
                    .any(|w| u.text.split_whitespace().any(|uw| uw == w))
            })
        });
        assert!(
            overlap,
            "questions and user profiles should overlap in words"
        );
    }

    #[test]
    fn activity_distribution_is_skewed() {
        let d = AnswersGenerator {
            num_users: 500,
            num_questions: 100,
            seed: 9,
            ..AnswersGenerator::default()
        }
        .generate();
        let ones = d.consumer_activity.iter().filter(|&&a| a == 1).count();
        assert!(ones > d.num_consumers() / 3);
        assert!(*d.consumer_activity.iter().max().unwrap() > 10);
    }

    #[test]
    fn user_documents_are_bounded_in_length() {
        let d = small().generate();
        for doc in &d.consumers {
            assert!(doc.text.split_whitespace().count() <= 40 * 8);
        }
    }
}
